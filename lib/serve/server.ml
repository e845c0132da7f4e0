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

let str_field j name = Option.bind (J.member name j) J.to_str

let int_field j name = Option.bind (J.member name j) J.to_int

(* A job's [max_executions] cap must be at least 1: a smaller one would
   explore one run and report it truncated. *)
let cap_error j =
  match int_field j "max_executions" with
  | Some n when n < 1 -> Some (Printf.sprintf "max_executions must be at least 1 (got %d)" n)
  | _ -> None

let bool_field j name =
  match J.member name j with Some (J.Bool b) -> Some b | _ -> None

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

let result_json ~job ~(t : B.test) ~store_disposition (r : Mc.Explorer.result) =
  event "result"
    [
      ("job", J.Int job);
      ("test", J.Str t.test_name);
      ("bugs", J.List (List.map bug_json r.bugs));
      ("explored", J.Int r.stats.explored);
      ("feasible", J.Int r.stats.feasible);
      ("distinct_graphs", J.Int r.stats.distinct_graphs);
      ("truncated", J.Bool r.stats.truncated);
      ("time", J.Float r.stats.time);
      ( "store",
        J.Str
          (match store_disposition with `Off -> "off" | `Miss -> "miss" | `Hit -> "hit") );
    ]

(* ------------------------------------------------------------------ *)
(* Jobs *)

let run_check server conn ~job req =
  match str_field req "bench" with
  | None -> send_error conn ~job "check: missing \"bench\""
  | Some name -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b -> (
      match overrides_field req with
      | Error m -> send_error conn ~job m
      | Ok overrides -> (
        match Ords.with_overrides b.sites overrides with
        | exception Invalid_argument m -> send_error conn ~job m
        | sites -> (
          let ords = Ords.default sites in
          match tests_of b (str_field req "test") with
          | [] -> send_error conn ~job "no matching test"
          | tests ->
            let max_execs = int_field req "max_executions" in
            let prune = Option.value (bool_field req "prune") ~default:true in
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
                      ~checker:Cdsspec.Checker.default_config ~use_cache:true ~max_execs
                      ~jobs:1 ~prune ~engine:`Arena b ~ords t
                  in
                  if not conn.alive then aborted := true
                  else begin
                    if r.bugs <> [] then any_bug := true;
                    send conn (result_json ~job ~t ~store_disposition:disposition r)
                  end
                end)
              tests;
            if not !aborted then
              send conn (event "done" [ ("job", J.Int job); ("ok", J.Bool (not !any_bug)) ])))))

let severity_json s = J.Str (Analyze.Lint.severity_to_string s)

let run_lint _server conn ~job req =
  match str_field req "bench" with
  | None -> send_error conn ~job "lint: missing \"bench\""
  | Some name -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b ->
      let config =
        {
          Analyze.Access_summary.default_config with
          max_executions = int_field req "max_executions";
        }
      in
      let summary = Analyze.Access_summary.collect ~config b in
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
  match str_field req "bench" with
  | None -> send_error conn ~job "fuzz: missing \"bench\""
  | Some name -> (
    match find_bench_or_report conn ~job name with
    | None -> ()
    | Some b -> (
      match tests_of b (str_field req "test") with
      | [] -> send_error conn ~job "no matching test"
      | tests ->
        let seed = Option.value (int_field req "seed") ~default:0 in
        let max_execs = Option.value (int_field req "max_executions") ~default:10_000 in
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
       @ match str_field req "bench" with Some b -> [ ("bench", J.Str b) ] | None -> []));
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
          try
            match cap_error req with
            | Some m -> send_error conn ~job m
            | None -> run server conn ~job req
          with e -> send_error conn ~job (Printf.sprintf "%s failed: %s" op (Printexc.to_string e))))

let handle_request server conn line =
  match J.of_string line with
  | Error m -> send_error conn (Printf.sprintf "bad request: %s" m)
  | Ok req -> (
    match str_field req "op" with
    | Some "ping" ->
      send conn
        (event "pong"
           [
             ("engine_rev", J.Str Mc.Engine_rev.current);
             ("jobs", J.Int (Mc.Parallel.pool_size server.pool));
             ("store", match server.store with Some s -> J.Str (Store.dir s) | None -> J.Null);
           ])
    | Some "list" -> send conn (event "benchmarks" [ ("benchmarks", benchmarks_json ()) ])
    | Some "shutdown" ->
      send conn (event "bye" []);
      server.shutdown <- true
    | Some "check" -> submit_job server conn ~op:"check" run_check req
    | Some "lint" -> submit_job server conn ~op:"lint" run_lint req
    | Some "fuzz" -> submit_job server conn ~op:"fuzz" run_fuzz req
    | Some op -> send_error conn (Printf.sprintf "unknown op %S" op)
    | None -> send_error conn "missing \"op\"")

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

(* A fresh buffer per read: each is a major-heap allocation that paces
   the major GC, and reusing one buffer raised the daemon's peak RSS by
   about 40% on the serve benchmark. *)
let read_conn server conn =
  let bytes = Bytes.create 65536 in
  match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
  | 0 -> conn.alive <- false
  | n -> take_lines server conn bytes n
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

(* Bind and listen on [socket]. Only a socket already at the path (left
   by a daemon that died) is replaced; anything else there is an error,
   and so is a failed bind or listen. *)
let listen_on socket =
  let fail e = Error (Printf.sprintf "%s: %s" socket (Unix.error_message e)) in
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> (
    (try Unix.unlink socket with Unix.Unix_error (_, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.listen fd 16
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      fail e)
  | _ -> Error (socket ^ ": exists and is not a socket")
  | exception Unix.Unix_error (e, _, _) -> fail e

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
