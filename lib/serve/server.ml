module J = Analyze.Json
module B = Structures.Benchmark
module Registry = Structures.Registry
module Ords = Structures.Ords

(* ------------------------------------------------------------------ *)
(* Connections *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out_mu : Mutex.t;
  mutable alive : bool;  (* false after EOF or a failed write *)
  mutable jobs_active : int;  (* guarded by the server mutex *)
  mutable closed : bool;  (* fd actually closed (main loop only) *)
}

type t = {
  listen_fd : Unix.file_descr;
  socket_path : string;
  read_buf : Bytes.t;  (* [read_conn]'s, for every connection: the main loop is the only reader *)
  pool : Mc.Parallel.pool;
  store : Store.t option;
  mu : Mutex.t;  (* conns list + jobs_active + job counter *)
  mutable conns : conn list;
  mutable next_job : int;
  mutable shutdown : bool;
}

(* One full line per write call keeps NDJSON framing atomic even with
   several worker domains streaming events to the same client; a failed
   write just marks the connection dead (the main loop reaps it). *)
let send conn (j : J.t) =
  Mutex.lock conn.out_mu;
  (if conn.alive then
     let line = J.to_line j ^ "\n" in
     let len = String.length line in
     let bytes = Bytes.of_string line in
     try
       let off = ref 0 in
       while !off < len do
         let n = Unix.write conn.fd bytes !off (len - !off) in
         if n <= 0 then raise Exit;
         off := !off + n
       done
     with _ -> conn.alive <- false);
  Mutex.unlock conn.out_mu

let event name fields = J.Obj (("event", J.Str name) :: fields)

let send_error conn ?job ?(suggestions = []) message =
  let fields =
    (match job with Some id -> [ ("job", J.Int id) ] | None -> [])
    @ [ ("message", J.Str message) ]
    @
    if suggestions = [] then []
    else [ ("suggestions", J.List (List.map (fun s -> J.Str s) suggestions)) ]
  in
  send conn (event "error" fields)

(* ------------------------------------------------------------------ *)
(* Request parsing *)

let ( let* ) = Result.bind

(* A request field: [Ok None] when absent (the caller's default), an
   [Error] naming the field and the type it needs when present with
   another type — never a silent default. *)
let field conv ty j name =
  match Option.map conv (J.member name j) with
  | None -> Ok None
  | Some (Some x) -> Ok (Some x)
  | Some None -> Error (Printf.sprintf "%s must be %s" name ty)

let str_field = field J.to_str "a string"
let int_field = field J.to_int "an integer"
let bool_field = field (function J.Bool b -> Some b | _ -> None) "a boolean"

(* A job's [max_executions] cap must be at least 1: a smaller one would
   explore one run and report it truncated. *)
let cap_field j =
  match int_field j "max_executions" with
  | Ok (Some n) when n < 1 -> Error (Printf.sprintf "max_executions must be at least 1 (got %d)" n)
  | r -> r

(* The [bench] field every job op needs. *)
let bench_field ~op j =
  Result.bind (str_field j "bench") (Option.to_result ~none:(op ^ ": missing \"bench\""))

(* overrides: [["site","order"], ...] *)
let overrides_field j =
  match J.member "overrides" j with
  | None -> Ok []
  | Some (J.List pairs) ->
    let parse = function
      | J.List [ J.Str site; J.Str order ] -> (
        match C11.Memory_order.of_string order with
        | Some o -> Ok (site, o)
        | None -> Error (Printf.sprintf "unknown memory order %S" order))
      | _ -> Error "overrides must be [site, order] pairs"
    in
    List.fold_left
      (fun acc p ->
        match acc, parse p with
        | Ok l, Ok x -> Ok (l @ [ x ])
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (Ok []) pairs
  | Some _ -> Error "overrides must be a list"

let find_bench_or_report conn ?job name =
  match Registry.find name with
  | Some b -> Some b
  | None ->
    send_error conn ?job
      ~suggestions:(Registry.suggest name)
      (Printf.sprintf "unknown structure %S" name);
    None

let tests_of b = function
  | None -> (b : B.t).tests
  | Some t -> List.filter (fun (x : B.test) -> x.test_name = t) b.tests

(* ------------------------------------------------------------------ *)
(* Result rendering *)

let bug_json b = J.Obj [ ("key", J.Str (Mc.Bug.key b)); ("message", J.Str (Fmt.str "%a" Mc.Bug.pp b)) ]

(* A failed store save keeps the verdict: the event says so and names
   the entry path in ["store_error"]. *)
let result_json ~job ~(t : B.test) ~store_disposition (r : Mc.Explorer.result) =
  let store, store_error =
    match store_disposition with
    | `Off -> ("off", [])
    | `Miss -> ("miss", [])
    | `Hit -> ("hit", [])
    | `Save_failed m -> ("save-failed", [ ("store_error", J.Str m) ])
  in
  event "result"
    ([
       ("job", J.Int job);
       ("test", J.Str t.test_name);
       ("bugs", J.List (List.map bug_json r.bugs));
       ("explored", J.Int r.stats.explored);
       ("feasible", J.Int r.stats.feasible);
       ("distinct_graphs", J.Int r.stats.distinct_graphs);
       ("truncated", J.Bool r.stats.truncated);
       ("time", J.Float r.stats.time);
       ("store", J.Str store);
     ]
    @ store_error)

(* ------------------------------------------------------------------ *)
(* Jobs *)

let run_check server conn ~job req =
  match
    let* name = bench_field ~op:"check" req in
    let* test = str_field req "test" in
    let* max_execs = cap_field req in
    let* prune = bool_field req "prune" in
    let* overrides = overrides_field req in
    Ok (name, test, max_execs, Option.value prune ~default:true, overrides)
  with
  | Error m -> send_error conn ~job m
  | Ok (name, test, max_execs, prune, overrides) -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b -> (
      match Ords.with_overrides b.sites overrides with
      | exception Invalid_argument m -> send_error conn ~job m
      | sites -> (
        let ords = Ords.default sites in
        match tests_of b test with
        | [] -> send_error conn ~job "no matching test"
        | tests ->
          let any_bug = ref false in
          let aborted = ref false in
          List.iter
            (fun (t : B.test) ->
              if conn.alive && not !aborted then begin
                let r, disposition =
                  Store.explore_checked ?store:server.store
                    ~stop:(fun () -> not conn.alive)
                    ~progress:(fun n ->
                      send conn
                        (event "progress"
                           [ ("job", J.Int job); ("test", J.Str t.test_name); ("explored", J.Int n) ]))
                    ~checker:Cdsspec.Checker.default_config ~max_execs ~jobs:1 ~prune b ~ords t
                in
                if not conn.alive then aborted := true
                else begin
                  if r.bugs <> [] then any_bug := true;
                  send conn (result_json ~job ~t ~store_disposition:disposition r)
                end
              end)
            tests;
          if not !aborted then
            send conn (event "done" [ ("job", J.Int job); ("ok", J.Bool (not !any_bug)) ]))))

let severity_json s = J.Str (Analyze.Lint.severity_to_string s)

let run_lint _server conn ~job req =
  match
    let* name = bench_field ~op:"lint" req in
    let* max_execs = cap_field req in
    Ok (name, max_execs)
  with
  | Error m -> send_error conn ~job m
  | Ok (name, max_executions) -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b ->
      let config = { Analyze.Access_summary.default_config with max_executions } in
      let summary =
        Analyze.Access_summary.collect ~config ~stop:(fun () -> not conn.alive) b
      in
      let findings = Analyze.Lint.lint summary in
      let ok = Analyze.Lint.max_severity findings <> Some Analyze.Lint.Error in
      send conn
        (event "result"
           [
             ("job", J.Int job);
             ("bench", J.Str b.name);
             ( "findings",
               J.List
                 (List.map
                    (fun (f : Analyze.Lint.finding) ->
                      J.Obj
                        [
                          ("rule", J.Str f.rule);
                          ("severity", severity_json f.severity);
                          ("site", match f.site with Some s -> J.Str s | None -> J.Null);
                          ("message", J.Str f.message);
                        ])
                    findings) );
           ]);
      send conn (event "done" [ ("job", J.Int job); ("ok", J.Bool ok) ]))

let run_fuzz _server conn ~job req =
  match
    let* name = bench_field ~op:"fuzz" req in
    let* test = str_field req "test" in
    let* seed = int_field req "seed" in
    let* max_execs = cap_field req in
    Ok (name, test, Option.value seed ~default:0, Option.value max_execs ~default:10_000)
  with
  | Error m -> send_error conn ~job m
  | Ok (name, test, seed, max_execs) -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b -> (
      match tests_of b test with
      | [] -> send_error conn ~job "no matching test"
      | tests ->
        let ords = Ords.default b.sites in
        let any_bug = ref false in
        let aborted = ref false in
        List.iter
          (fun (t : B.test) ->
            if conn.alive && not !aborted then begin
              let cache = Cdsspec.Checker.create_cache () in
              let r =
                Fuzz.Engine.run
                  ~config:
                    {
                      Fuzz.Engine.default_config with
                      scheduler = b.scheduler;
                      max_executions = Some max_execs;
                    }
                  ~on_feasible:(Cdsspec.Checker.hook ~cache b.spec)
                  ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
                  ~stop:(fun () -> not conn.alive)
                  ~seed (t.program ords)
              in
              let er = Fuzz.Engine.explorer_result r in
              if not conn.alive then aborted := true
              else begin
                if er.bugs <> [] then any_bug := true;
                send conn (result_json ~job ~t ~store_disposition:`Off er)
              end
            end)
          tests;
        if not !aborted then
          send conn (event "done" [ ("job", J.Int job); ("ok", J.Bool (not !any_bug)) ])))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let benchmarks_json () =
  J.List
    (List.map
       (fun (b : B.t) ->
         J.Obj
           [
             ("name", J.Str b.name);
             ("tests", J.List (List.map (fun (t : B.test) -> J.Str t.test_name) b.tests));
             ( "sites",
               J.List
                 (List.map
                    (fun (s : Ords.site) ->
                      J.List [ J.Str s.name; J.Str (C11.Memory_order.to_string s.order) ])
                    b.sites) );
           ])
       Registry.all)

let submit_job server conn ~op run req =
  Mutex.lock server.mu;
  let job = server.next_job in
  server.next_job <- job + 1;
  conn.jobs_active <- conn.jobs_active + 1;
  Mutex.unlock server.mu;
  send conn
    (event "accepted"
       ([ ("job", J.Int job); ("op", J.Str op) ]
       @ match str_field req "bench" with Ok (Some b) -> [ ("bench", J.Str b) ] | _ -> []));
  Mc.Parallel.pool_submit server.pool (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock server.mu;
          conn.jobs_active <- conn.jobs_active - 1;
          Mutex.unlock server.mu)
        (fun () ->
          (* A job that raises (say, its store directory vanished) still
             ends with a structured event: the pool would only log the
             exception, leaving the client waiting for a [done]. *)
          try run server conn ~job req with e -> send_error conn ~job (Printf.sprintf "%s failed: %s" op (Printexc.to_string e))))

let handle_request server conn line =
  match J.of_string line with
  | Error m -> send_error conn (Printf.sprintf "bad request: %s" m)
  | Ok req -> (
    match str_field req "op" with
    | Ok (Some "ping") ->
      send conn
        (event "pong"
           [
             ("engine_rev", J.Str Mc.Engine_rev.current);
             ("jobs", J.Int (Mc.Parallel.pool_size server.pool));
             ("store", match server.store with Some s -> J.Str (Store.dir s) | None -> J.Null);
           ])
    | Ok (Some "list") -> send conn (event "benchmarks" [ ("benchmarks", benchmarks_json ()) ])
    | Ok (Some "shutdown") ->
      send conn (event "bye" []);
      server.shutdown <- true
    | Ok (Some "check") -> submit_job server conn ~op:"check" run_check req
    | Ok (Some "lint") -> submit_job server conn ~op:"lint" run_lint req
    | Ok (Some "fuzz") -> submit_job server conn ~op:"fuzz" run_fuzz req
    | Ok (Some op) -> send_error conn (Printf.sprintf "unknown op %S" op)
    | Ok None -> send_error conn "missing \"op\""
    | Error m -> send_error conn m)

(* ------------------------------------------------------------------ *)
(* Main loop *)

(* The longest request line the daemon buffers. A client that sends more
   without a newline gets one error event and loses its connection,
   instead of growing the daemon's memory without bound. *)
let max_line = 1 lsl 20

(* Frame the [n] bytes just read into [chunk]: only they are scanned for
   newlines, and only the unterminated tail is kept in [inbuf], so
   absorbing a long line costs time linear in its length. *)
let take_lines server conn chunk n =
  let rec go start =
    let stop = ref start in
    while !stop < n && Bytes.get chunk !stop <> '\n' do
      incr stop
    done;
    if Buffer.length conn.inbuf + (!stop - start) > max_line then begin
      send_error conn (Printf.sprintf "request line longer than %d bytes" max_line);
      Buffer.reset conn.inbuf;
      conn.alive <- false
    end
    else begin
      Buffer.add_subbytes conn.inbuf chunk start (!stop - start);
      if !stop < n then begin
        let line = Buffer.contents conn.inbuf in
        Buffer.clear conn.inbuf;
        if String.trim line <> "" then handle_request server conn line;
        go (!stop + 1)
      end
    end
  in
  go 0

let read_conn server conn =
  match Unix.read conn.fd server.read_buf 0 (Bytes.length server.read_buf) with
  | 0 -> conn.alive <- false
  | n -> take_lines server conn server.read_buf n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> conn.alive <- false

(* Reap dead connections once their jobs have noticed (the stop hook
   polls [alive]) and finished; closing the fd earlier would race
   workers still holding it. *)
let reap server =
  Mutex.lock server.mu;
  let dead =
    List.filter (fun c -> (not c.alive) && c.jobs_active = 0 && not c.closed) server.conns
  in
  List.iter (fun c -> c.closed <- true) dead;
  server.conns <- List.filter (fun c -> not c.closed) server.conns;
  Mutex.unlock server.mu;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()) dead

let path_error socket e = Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))

(* Only a socket already at the path (left by a daemon that died) may be
   replaced, and a new one needs a directory it can be created in. *)
let check_socket socket =
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Ok ()
  | _ -> Error (socket ^ ": exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
    match Unix.access (Filename.dirname socket) [ Unix.W_OK; Unix.X_OK ] with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> path_error socket e)
  | exception Unix.Unix_error (e, _, _) -> path_error socket e

(* [check_socket], then bind and listen on [socket]. *)
let listen_on socket =
  Result.bind (check_socket socket) (fun () ->
      (try Unix.unlink socket with Unix.Unix_error (_, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX socket);
        Unix.listen fd 16
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        path_error socket e)

let serve ~socket ~jobs ?store () =
  (* A worker writing to a vanished client must get EPIPE as a return
     value, not a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match listen_on socket with
  | Error _ as e -> e
  | Ok listen_fd ->
    let server =
      {
        listen_fd;
        socket_path = socket;
        read_buf = Bytes.create 65536;
        pool = Mc.Parallel.pool_create ~jobs;
        store;
        mu = Mutex.create ();
        conns = [];
        next_job = 0;
        shutdown = false;
      }
    in
    Printf.printf "serving on %s (%d workers%s, engine %s)\n%!" socket
      (Mc.Parallel.pool_size server.pool)
      (match store with Some s -> ", store " ^ Store.dir s | None -> "")
      Mc.Engine_rev.current;
    while not server.shutdown do
      let live = List.filter (fun c -> c.alive && not c.closed) server.conns in
      let fds = server.listen_fd :: List.map (fun c -> c.fd) live in
      let readable, _, _ =
        try Unix.select fds [] [] 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = server.listen_fd then begin
            match Unix.accept server.listen_fd with
            | client_fd, _ ->
              Mutex.lock server.mu;
              let conn =
                {
                  fd = client_fd;
                  inbuf = Buffer.create 256;
                  out_mu = Mutex.create ();
                  alive = true;
                  jobs_active = 0;
                  closed = false;
                }
              in
              server.conns <- conn :: server.conns;
              Mutex.unlock server.mu
            | exception Unix.Unix_error (_, _, _) -> ()
          end
          else
            match List.find_opt (fun c -> c.fd = fd) live with
            | Some conn -> read_conn server conn
            | None -> ())
        readable;
      reap server
    done;
    (* Shutdown: running jobs finish (jobs of vanished clients abort
       through their stop hook), then workers exit and are joined. *)
    Mc.Parallel.pool_shutdown server.pool;
    List.iter
      (fun c -> if not c.closed then try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
      server.conns;
    (try Unix.close server.listen_fd with Unix.Unix_error (_, _, _) -> ());
    if Sys.file_exists server.socket_path then Sys.remove server.socket_path;
    Ok ()
