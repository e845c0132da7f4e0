(* PR-7 protocol tests for the serve daemon.

   The daemon runs in an in-process domain on a scratch Unix socket; the
   tests drive it through {!Serve.Client}, the same code path the
   [cdsspec_run client] subcommand uses. Verdicts streamed over the
   protocol are pinned against direct {!Store.explore_checked} runs —
   the serve layer must be a transport, never a semantics change. *)

module J = Analyze.Json
module B = Structures.Benchmark

let cap = 30_000

(* ------------------------------------------------------------------ *)
(* JSON wire format *)

let samples =
  [
    J.Null;
    J.Bool true;
    J.Bool false;
    J.Int 0;
    J.Int (-42);
    J.Int max_int;
    J.Float 1.5;
    J.Float (-0.25);
    J.Str "";
    J.Str "plain";
    J.Str "esc \" \\ \n \t \r \x01 end";
    J.Str "caf\xc3\xa9";
    J.Str "\"escape first";
    J.Str "escape last\\";
    J.Str "\n";
    J.Str "\\\"";
    J.Str "a\x00b\x1f\x7f";
    J.Obj [ ("key \"with\" escapes\n", J.Int 1); ("plain", J.Str "\t") ];
    J.List [];
    J.List [ J.Int 1; J.Str "two"; J.Null ];
    J.Obj [];
    J.Obj
      [
        ("event", J.Str "result");
        ("bugs", J.List [ J.Obj [ ("key", J.Str "k"); ("message", J.Str "line1\nline2") ] ]);
        ("nested", J.Obj [ ("deep", J.List [ J.List [ J.Bool false ] ]) ]);
      ];
  ]

let test_json_roundtrip () =
  List.iter
    (fun j ->
      (match J.of_string (J.to_line j) with
      | Ok j' -> Alcotest.(check bool) ("to_line roundtrip: " ^ J.to_line j) true (j = j')
      | Error m -> Alcotest.fail ("to_line roundtrip failed: " ^ m));
      match J.of_string (J.to_string j) with
      | Ok j' -> Alcotest.(check bool) ("to_string roundtrip: " ^ J.to_line j) true (j = j')
      | Error m -> Alcotest.fail ("to_string roundtrip failed: " ^ m))
    samples;
  (* NDJSON framing invariant: one event, one line *)
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "compact form never contains a newline"
        false
        (String.contains (J.to_line j) '\n'))
    samples

(* The compact form's bytes, pinned: the serve protocol, [client --json]
   and [lint --json] print them. *)
let test_json_golden_line () =
  Alcotest.(check string)
    "to_line bytes" {|{"event":"result","k\"ey":[-3,0.5,true,null,"a\tb\u0001\\"],"o":{}}|}
    (J.to_line
       (J.Obj
          [
            ("event", J.Str "result");
            ("k\"ey", J.List [ J.Int (-3); J.Float 0.5; J.Bool true; J.Null; J.Str "a\tb\x01\\" ]);
            ("o", J.Obj []);
          ]))

let test_json_errors () =
  let rejects what s =
    match J.of_string s with
    | Ok _ -> Alcotest.fail (what ^ ": should be rejected: " ^ s)
    | Error _ -> ()
  in
  rejects "empty" "";
  rejects "trailing garbage" "{} x";
  rejects "bare word" "treiber";
  rejects "unterminated string" "\"abc";
  rejects "unterminated object" "{\"a\": 1";
  rejects "missing colon" "{\"a\" 1}";
  rejects "trailing comma" "[1,]";
  (match J.of_string "  { \"a\" : [ 1 , 2.5 ] } " with
  | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float 2.5 ]) ]) -> ()
  | Ok _ -> Alcotest.fail "whitespace parse wrong shape"
  | Error m -> Alcotest.fail ("whitespace parse failed: " ^ m))

(* ------------------------------------------------------------------ *)
(* Daemon harness *)

let socket_counter = ref 0

(* Run [f] against an in-process daemon; clean shutdown (with the "bye"
   ack) and domain join are part of every test's teardown, so a wedged
   server fails the test rather than leaking. [on_connect] runs at each
   successful readiness probe, before [f]. [socket] defaults to a fresh
   path. The daemon's store is [store], or a handle on [store_dir]. *)
let with_server ?store_dir ?store ?(on_connect = ignore) ?socket ~jobs f =
  let socket =
    match socket with
    | Some path -> path
    | None ->
      incr socket_counter;
      let path = Printf.sprintf "serve-test-%d.sock" !socket_counter in
      if Sys.file_exists path then Sys.remove path;
      path
  in
  let d =
    Domain.spawn (fun () ->
        let store = match store with Some _ -> store | None -> Option.map Store.open_dir store_dir in
        Serve.Server.serve ~socket ~jobs ?store ())
  in
  (* The socket file appears at bind, a moment before the daemon
     listens, so wait for a connect to succeed rather than for the file. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec listening () =
    match Serve.Client.connect socket with
    | c ->
      on_connect ();
      Serve.Client.close c;
      true
    | exception Unix.Unix_error (_, _, _) ->
      Unix.gettimeofday () < deadline && (Unix.sleepf 0.01; listening ())
  in
  Alcotest.(check bool) "server socket accepts connections" true (listening ());
  Fun.protect
    ~finally:(fun () ->
      (let c = Serve.Client.connect socket in
       Serve.Client.send c (J.Obj [ ("op", J.Str "shutdown") ]);
       (match Serve.Client.recv ~timeout:30. c with
       | Serve.Client.Msg j ->
         Alcotest.(check (option string))
           "shutdown acked with bye" (Some "bye")
           (Option.bind (J.member "event" j) J.to_str)
       | _ -> Alcotest.fail "no bye on shutdown");
       Serve.Client.close c);
      Alcotest.(check (result unit string)) "daemon stops with Ok" (Ok ()) (Domain.join d);
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f socket)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ev j = Option.bind (J.member "event" j) J.to_str
let str_f k j = Option.bind (J.member k j) J.to_str
let int_f k j = Option.bind (J.member k j) J.to_int

(* Collect one job's events up to its [done] or [error], with a timeout
   on every line (or, given [within], on the whole job), so a wedged
   daemon fails loudly instead of hanging the suite. *)
let wait_job ?within c ~job =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) within in
  let timeout () =
    match deadline with None -> 300. | Some d -> Float.max 0. (d -. Unix.gettimeofday ())
  in
  let rec go acc =
    match Serve.Client.recv ~timeout:(timeout ()) c with
    | Serve.Client.Timeout -> Alcotest.fail "timed out waiting for job events"
    | Serve.Client.Eof -> Alcotest.fail "server closed connection mid-job"
    | Serve.Client.Msg j -> (
      if Serve.Client.job_id j <> Some job then go acc
      else
        let acc = j :: acc in
        match ev j with Some ("done" | "error") -> List.rev acc | _ -> go acc)
  in
  go []

let submit c req =
  Serve.Client.send c req;
  match Serve.Client.recv ~timeout:30. c with
  | Serve.Client.Msg j when ev j = Some "accepted" -> (
    match Serve.Client.job_id j with
    | Some job -> job
    | None -> Alcotest.fail "accepted event without job id")
  | Serve.Client.Msg j -> Alcotest.fail ("expected accepted, got " ^ J.to_line j)
  | _ -> Alcotest.fail "no accepted event"

let check_req ?test bench =
  J.Obj
    ([ ("op", J.Str "check"); ("bench", J.Str bench); ("max_executions", J.Int cap) ]
    @ match test with Some t -> [ ("test", J.Str t) ] | None -> [])

(* The protocol-visible summary of one result event. *)
let result_summary j =
  ( Option.get (str_f "test" j),
    (match J.member "bugs" j with
    | Some (J.List bs) -> List.filter_map (str_f "key") bs
    | _ -> []),
    Option.get (int_f "explored" j),
    Option.get (int_f "distinct_graphs" j) )

let results_of events =
  List.filter_map (fun j -> if ev j = Some "result" then Some (result_summary j) else None) events

(* Reference: what a direct in-process check of the same job reports. *)
let direct_results ?store bench ~test =
  let b = Option.get (Structures.Registry.find bench) in
  let ords = Structures.Ords.default b.B.sites in
  let tests =
    match test with
    | None -> b.B.tests
    | Some t -> List.filter (fun (x : B.test) -> x.B.test_name = t) b.B.tests
  in
  List.map
    (fun (t : B.test) ->
      let r, _ =
        Store.explore_checked ?store ~checker:Cdsspec.Checker.default_config
          ~max_execs:(Some cap) ~jobs:1 ~prune:true b ~ords t
      in
      (t.B.test_name, List.map Mc.Bug.key r.Mc.Explorer.bugs, r.Mc.Explorer.stats.explored,
       r.Mc.Explorer.stats.distinct_graphs))
    tests

(* ------------------------------------------------------------------ *)
(* Protocol tests *)

let test_ping_and_list () =
  with_server ~jobs:2 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
          (match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j ->
            Alcotest.(check (option string)) "pong" (Some "pong") (ev j);
            Alcotest.(check (option string))
              "pong carries the engine revision"
              (Some Mc.Engine_rev.current)
              (str_f "engine_rev" j);
            Alcotest.(check (option int)) "pong reports pool size" (Some 2) (int_f "jobs" j)
          | _ -> Alcotest.fail "no pong");
          Serve.Client.send c (J.Obj [ ("op", J.Str "list") ]);
          match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j -> (
            Alcotest.(check (option string)) "benchmarks event" (Some "benchmarks") (ev j);
            match J.member "benchmarks" j with
            | Some (J.List bs) ->
              let names = List.filter_map (str_f "name") bs in
              Alcotest.(check bool)
                "list includes Treiber Stack" true
                (List.mem "Treiber Stack" names)
            | _ -> Alcotest.fail "benchmarks field missing")
          | _ -> Alcotest.fail "no benchmarks event"))

let test_unknown_bench_suggestions () =
  with_server ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let job = submit c (check_req "treiber stak") in
          match wait_job c ~job with
          | [ j ] ->
            Alcotest.(check (option string)) "job fails" (Some "error") (ev j);
            let sugg =
              match J.member "suggestions" j with
              | Some (J.List l) -> List.filter_map J.to_str l
              | _ -> []
            in
            Alcotest.(check bool)
              "error suggests the real name" true
              (List.mem "Treiber Stack" sugg)
          | evs ->
            Alcotest.fail
              (Printf.sprintf "expected a single error event, got %d events" (List.length evs))))

let test_bad_override () =
  with_server ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.send c
            (J.Obj
               [
                 ("op", J.Str "check");
                 ("bench", J.Str "Treiber Stack");
                 ("overrides", J.List [ J.List [ J.Str "no_such_site"; J.Str "relaxed" ] ]);
               ]);
          (* accepted, then a structured error — a typo'd pin must never
             silently check the published table instead *)
          (match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j -> Alcotest.(check (option string)) "accepted" (Some "accepted") (ev j)
          | _ -> Alcotest.fail "no accepted event");
          match Serve.Client.recv ~timeout:60. c with
          | Serve.Client.Msg j -> Alcotest.(check (option string)) "error" (Some "error") (ev j)
          | _ -> Alcotest.fail "no error event"))

(* A cap below 1 would explore one run and report it truncated: every
   job op answers it with one structured error carrying the job id. *)
let test_bad_cap () =
  with_server ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          List.iter
            (fun (op, n) ->
              let job =
                submit c
                  (J.Obj
                     [
                       ("op", J.Str op);
                       ("bench", J.Str "Treiber Stack");
                       ("max_executions", J.Int n);
                     ])
              in
              match wait_job c ~job with
              | [ j ] ->
                Alcotest.(check (option string))
                  (Printf.sprintf "%s max_executions=%d: error" op n)
                  (Some "error") (ev j)
              | evs ->
                Alcotest.fail
                  (Printf.sprintf "%s max_executions=%d: expected one error event, got %d events"
                     op n (List.length evs)))
            [ ("check", 0); ("check", -5); ("lint", 0) ]))

(* A field of the wrong type is an error naming the field and the type
   it needs, never a silent default: for each op that reads the field,
   the job ends with exactly one [error] event and no [result], and the
   connection keeps serving. *)
let test_wrong_field_types () =
  with_server ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          List.iter
            (fun (op, field, bad, needs) ->
              let fields =
                ("bench", J.Str "SPSC Queue")
                :: (if op = "lint" then [] else [ ("test", J.Str "1enq-1deq") ])
              in
              let req =
                J.Obj (("op", J.Str op) :: (field, bad) :: List.remove_assoc field fields)
              in
              let where = Printf.sprintf "%s with %s" op (J.to_line req) in
              (match wait_job c ~job:(submit c req) with
              | [ j ] ->
                Alcotest.(check (option string)) (where ^ ": error") (Some "error") (ev j);
                Alcotest.(check (option string))
                  (where ^ ": message")
                  (Some (Printf.sprintf "%s must be %s" field needs))
                  (str_f "message" j)
              | evs ->
                Alcotest.failf "%s: expected one error event, got %s" where
                  (String.concat " " (List.map J.to_line evs)));
              Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
              match Serve.Client.recv ~timeout:30. c with
              | Serve.Client.Msg j -> Alcotest.(check (option string)) (where ^ ": pong") (Some "pong") (ev j)
              | _ -> Alcotest.failf "%s: no pong" where)
            [
              ("check", "bench", J.Int 5, "a string");
              ("check", "test", J.Int 5, "a string");
              ("check", "max_executions", J.Str "5", "an integer");
              ("check", "prune", J.Str "no", "a boolean");
              ("lint", "bench", J.Int 5, "a string");
              ("lint", "max_executions", J.Str "5", "an integer");
              ("fuzz", "bench", J.Int 5, "a string");
              ("fuzz", "test", J.Int 5, "a string");
              ("fuzz", "seed", J.Str "1", "an integer");
              ("fuzz", "max_executions", J.Str "5", "an integer");
            ]))

(* A failed connect closes the socket it opened: each of 100 connects to
   a path where no daemon listens raises, and no descriptor is left. *)
let test_failed_connect_closes () =
  let path = "no-daemon-here.sock" in
  if Sys.file_exists path then Sys.remove path;
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for i = 1 to 100 do
    match Serve.Client.connect path with
    | c ->
      Serve.Client.close c;
      Alcotest.failf "connect %d succeeded" i
    | exception Unix.Unix_error (_, _, _) -> ()
  done;
  Alcotest.(check int) "open descriptors unchanged" before (open_fds ())

let test_concurrent_clients () =
  (* two clients with overlapping jobs on a 2-worker pool; each client's
     verdicts must match a direct run of the same job *)
  let expect_a = direct_results "Treiber Stack" ~test:None in
  let expect_b = direct_results "M&S Queue" ~test:(Some "2enq-2deq") in
  with_server ~jobs:2 (fun socket ->
      let ca = Serve.Client.connect socket in
      let cb = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close ca;
          Serve.Client.close cb)
        (fun () ->
          let ja = submit ca (check_req "Treiber Stack") in
          let jb = submit cb (check_req "M&S Queue" ~test:"2enq-2deq") in
          let evs_a = wait_job ca ~job:ja in
          let evs_b = wait_job cb ~job:jb in
          Alcotest.(check bool)
            "client A verdicts match direct check" true
            (results_of evs_a = expect_a);
          Alcotest.(check bool)
            "client B verdicts match direct check" true
            (results_of evs_b = expect_b);
          let done_ok evs =
            match List.rev evs with
            | last :: _ when ev last = Some "done" -> J.member "ok" last = Some (J.Bool true)
            | _ -> false
          in
          Alcotest.(check bool) "client A done ok" true (done_ok evs_a);
          Alcotest.(check bool) "client B done ok" true (done_ok evs_b)))

let test_disconnect_does_not_wedge () =
  with_server ~jobs:1 (fun socket ->
      (* client 1 submits a multi-test job and vanishes right after the
         accept — on a 1-worker pool a wedged or fd-racing worker would
         stall every later job *)
      let c1 = Serve.Client.connect socket in
      let _job = submit c1 (check_req "M&S Queue") in
      Serve.Client.close c1;
      let c2 = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c2) (fun () ->
          let job = submit c2 (check_req "Treiber Stack" ~test:"2push-2pop") in
          let evs = wait_job c2 ~job in
          match List.rev evs with
          | last :: _ ->
            Alcotest.(check (option string))
              "job after disconnect completes" (Some "done") (ev last)
          | [] -> Alcotest.fail "no events for post-disconnect job"))

let test_store_warm_over_protocol () =
  let dir = "serve-store-scratch" in
  rm_rf dir;
  with_server ~jobs:1 ~store_dir:dir (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let req = check_req "M&S Queue" ~test:"2enq-2deq" in
          let cold = wait_job c ~job:(submit c req) in
          let warm = wait_job c ~job:(submit c req) in
          let dispo evs =
            List.filter_map (fun j -> if ev j = Some "result" then str_f "store" j else None) evs
          in
          Alcotest.(check (list string)) "first job is cold" [ "miss" ] (dispo cold);
          Alcotest.(check (list string)) "second job is warm" [ "hit" ] (dispo warm);
          Alcotest.(check bool)
            "warm verdicts identical over the wire" true
            (results_of cold
            |> List.map (fun (t, bugs, _, g) -> (t, bugs, g))
            = (results_of warm |> List.map (fun (t, bugs, _, g) -> (t, bugs, g))));
          let explored evs = List.map (fun (_, _, e, _) -> e) (results_of evs) in
          Alcotest.(check bool)
            "warm job collapses" true
            (List.for_all2 (fun w c -> w <= c) (explored warm) (explored cold))));
  rm_rf dir

(* A buggy job is served from the store too: the same weakened check
   answers [miss], then [hit] with the same bugs, keys and messages. *)
let test_buggy_store_over_protocol () =
  let dir = "serve-store-buggy" in
  rm_rf dir;
  with_server ~jobs:1 ~store_dir:dir (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let req =
            J.Obj
              [
                ("op", J.Str "check");
                ("bench", J.Str "M&S Queue");
                ("test", J.Str "1enq-1deq");
                ("overrides", J.List [ J.List [ J.Str "enq_cas_next"; J.Str "relaxed" ] ]);
              ]
          in
          let result evs =
            match List.filter (fun j -> ev j = Some "result") evs with
            | [ r ] -> r
            | _ -> Alcotest.fail "one result event"
          in
          let cold = result (wait_job c ~job:(submit c req)) in
          let warm = result (wait_job c ~job:(submit c req)) in
          Alcotest.(check (option string)) "first job misses" (Some "miss") (str_f "store" cold);
          Alcotest.(check (option string)) "second job hits" (Some "hit") (str_f "store" warm);
          Alcotest.(check bool) "the job is buggy" true
            (match J.member "bugs" cold with Some (J.List (_ :: _)) -> true | _ -> false);
          Alcotest.(check bool) "identical bugs" true (J.member "bugs" cold = J.member "bugs" warm);
          Alcotest.(check bool) "identical graph count" true
            (int_f "distinct_graphs" cold = int_f "distinct_graphs" warm)));
  rm_rf dir

(* One job submitted three times to a daemon with a store answers
   [miss], then [hit] twice with the same counts and bugs: the third
   reuses the second's re-validation. *)
let test_repeated_hit_reused () =
  let dir = "serve-store-reuse" in
  rm_rf dir;
  let store = Store.open_dir dir in
  with_server ~jobs:1 ~store (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let req =
            J.Obj
              [
                ("op", J.Str "check");
                ("bench", J.Str "M&S Queue");
                ("test", J.Str "1enq-1deq");
                ("overrides", J.List [ J.List [ J.Str "enq_cas_next"; J.Str "relaxed" ] ]);
              ]
          in
          let result () =
            match List.filter (fun j -> ev j = Some "result") (wait_job c ~job:(submit c req)) with
            | [ r ] -> r
            | _ -> Alcotest.fail "one result event"
          in
          let cold = result () in
          let hits = [ result (); result () ] in
          Alcotest.(check (list (option string)))
            "miss, hit, hit" [ Some "miss"; Some "hit"; Some "hit" ]
            (List.map (str_f "store") (cold :: hits));
          let counts r =
            (List.map (fun k -> int_f k r) [ "explored"; "feasible"; "distinct_graphs" ], J.member "bugs" r)
          in
          Alcotest.(check bool) "the hits report the same counts and bugs" true
            (counts (List.nth hits 0) = counts (List.nth hits 1));
          Alcotest.(check bool) "the job is buggy" true
            (match J.member "bugs" cold with Some (J.List (_ :: _)) -> true | _ -> false);
          Alcotest.(check bool) "the hits' bugs and graphs are the cold run's" true
            (List.for_all
               (fun h ->
                 J.member "bugs" h = J.member "bugs" cold
                 && int_f "distinct_graphs" h = int_f "distinct_graphs" cold)
               hits)));
  Alcotest.(check int) "the third job is a reuse" 1 (Store.stats store).reused;
  rm_rf dir

(* [accepted] echoes the cap a job runs under. A [lint] sent without
   [max_executions] runs under the CLI's 200,000-run cap, and a [check]
   under the CLI's 500,000; both used to explore with no cap. *)
let test_accepted_echoes_cap () =
  with_server ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let accepted req =
            Serve.Client.send c req;
            match Serve.Client.recv ~timeout:30. c with
            | Serve.Client.Msg j when ev j = Some "accepted" ->
              ignore (wait_job c ~job:(Option.get (Serve.Client.job_id j)));
              J.member "max_executions" j
            | _ -> Alcotest.fail "no accepted event"
          in
          Alcotest.(check bool) "lint without a cap runs under the CLI's" true
            (accepted (J.Obj [ ("op", J.Str "lint"); ("bench", J.Str "SPSC Queue") ])
            = Some (J.Int 200_000));
          Alcotest.(check bool) "a request's cap is echoed" true
            (accepted
               (J.Obj
                  [ ("op", J.Str "lint"); ("bench", J.Str "SPSC Queue"); ("max_executions", J.Int 7) ])
            = Some (J.Int 7));
          Alcotest.(check bool) "check without a cap runs under the CLI's" true
            (accepted
               (J.Obj [ ("op", J.Str "check"); ("bench", J.Str "SPSC Queue"); ("test", J.Str "1enq-1deq") ])
            = Some (J.Int 500_000))))

(* A failed store save keeps the verdict: the job sends its [result],
   which says the save failed and names the entry path, then [done], and
   the daemon keeps serving. The save fails two ways: with a directory
   at the entry path, and with the store directory deleted under the
   daemon. *)
let test_failed_save_keeps_verdict () =
  let dir = "serve-store-failing" in
  rm_rf dir;
  with_server ~jobs:1 ~store_dir:dir (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          let req = check_req "Treiber Stack" ~test:"2push-2pop" in
          let saved = results_of (wait_job c ~job:(submit c req)) in
          let entries = Array.to_list (Sys.readdir dir) in
          let entry =
            match List.filter (fun f -> Filename.check_suffix f ".bin") entries with
            | [ f ] -> Filename.concat dir f
            | _ -> Alcotest.fail "one entry saved"
          in
          let failed_save what =
            let job = submit c req in
            match wait_job c ~job with
            | [ result; done_ ] ->
              Alcotest.(check (option string))
                (what ^ ": result first") (Some "result") (ev result);
              Alcotest.(check bool) (what ^ ": same verdict") true (results_of [ result ] = saved);
              Alcotest.(check (option string))
                (what ^ ": save failed") (Some "save-failed") (str_f "store" result);
              Alcotest.(check bool) (what ^ ": the failure names the entry path") true
                (match str_f "store_error" result with
                | Some m -> String.starts_with ~prefix:(entry ^ ": ") m
                | None -> false);
              Alcotest.(check (option string)) (what ^ ": then done") (Some "done") (ev done_);
              Alcotest.(check (option int)) (what ^ ": done carries the job id") (Some job)
                (int_f "job" done_)
            | evs ->
              Alcotest.failf "%s: expected result then done, got %s" what
                (String.concat " " (List.map J.to_line evs))
          in
          rm_rf entry;
          Sys.mkdir entry 0o755;
          failed_save "directory at the entry path";
          rm_rf dir;
          failed_save "store directory deleted";
          Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
          match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j -> Alcotest.(check (option string)) "daemon still answers" (Some "pong") (ev j)
          | _ -> Alcotest.fail "no pong after the failed saves"));
  rm_rf dir

(* A job whose client has gone stops: on a one-worker daemon, a job
   that would run for minutes is abandoned right after its accept, and
   a check on a new connection must still answer within 10 s. *)
let abandoned_job_stops req () =
  with_server ~jobs:1 (fun socket ->
      let c1 = Serve.Client.connect socket in
      ignore (submit c1 req);
      Serve.Client.close c1;
      let c2 = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c2) (fun () ->
          let job = submit c2 (check_req "Treiber Stack" ~test:"2push-2pop") in
          match List.rev (wait_job ~within:10. c2 ~job) with
          | last :: _ -> Alcotest.(check (option string)) "check answers" (Some "done") (ev last)
          | [] -> Alcotest.fail "no events for the check"))

(* Seqlock/2write-1read runs about 40,000 fuzz executions a second, and
   a lint job sent without [max_executions] explores Chase-Lev's tests
   with no cap. *)
let test_abandoned_fuzz_stops =
  abandoned_job_stops
    (J.Obj
       [
         ("op", J.Str "fuzz");
         ("bench", J.Str "Seqlock");
         ("test", J.Str "2write-1read");
         ("max_executions", J.Int 3_000_000);
       ])

let test_abandoned_lint_stops =
  abandoned_job_stops (J.Obj [ ("op", J.Str "lint"); ("bench", J.Str "Chase-Lev Deque") ])

(* The daemon opens its store before it binds the socket, so the first
   connect that succeeds finds the store's [meta] written and no
   temporary file of that write left in the directory. *)
let test_store_ready_before_connect () =
  let dir = "serve-store-ready" in
  rm_rf dir;
  let first = ref None in
  let observe () =
    if !first = None then
      first :=
        Some
          ( Sys.file_exists (Filename.concat dir "meta"),
            Sys.file_exists dir
            && Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir) )
  in
  with_server ~jobs:1 ~store_dir:dir ~on_connect:observe (fun _ ->
      Alcotest.(check (option (pair bool bool)))
        "meta written, no tmp file, at the first connect" (Some (true, false)) !first);
  rm_rf dir

(* A request line over the daemon's 1 MiB cap ends that connection with
   exactly one error event, and the daemon keeps serving others. The
   2 MiB line is written from its own domain: past the cap the daemon
   stops reading and closes the connection, which fails the write. *)
let test_oversized_line () =
  with_server ~jobs:1 (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let writer =
        Domain.spawn (fun () ->
            let chunk = Bytes.make 65536 'x' in
            try
              for _ = 1 to 32 do
                let off = ref 0 in
                while !off < Bytes.length chunk do
                  off := !off + Unix.write fd chunk !off (Bytes.length chunk - !off)
                done
              done
            with Unix.Unix_error (_, _, _) -> ())
      in
      (* everything the daemon sends until it closes, or 20 s pass *)
      let received = Buffer.create 256 in
      let deadline = Unix.gettimeofday () +. 20. in
      let buf = Bytes.create 4096 in
      let rec read_all () =
        let left = deadline -. Unix.gettimeofday () in
        if left > 0. then
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> ()
          | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes received buf 0 n;
              read_all ()
            | exception Unix.Unix_error (_, _, _) -> ())
      in
      read_all ();
      Domain.join writer;
      Unix.close fd;
      let events =
        List.filter_map
          (fun line -> if line = "" then None else Result.to_option (J.of_string line))
          (String.split_on_char '\n' (Buffer.contents received))
      in
      Alcotest.(check (list (option string))) "one error event" [ Some "error" ] (List.map ev events);
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
          match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j ->
            Alcotest.(check (option string)) "daemon still answers" (Some "pong") (ev j)
          | _ -> Alcotest.fail "no pong after the oversized line"))

(* [serve] replaces a stale socket left at its path and nothing else: a
   regular file or a directory there, or a missing parent directory, is
   an [Error] before any worker starts, and the file keeps its bytes. *)
let test_socket_path_rule () =
  let file = "serve-not-a-socket.txt" in
  let oc = open_out_bin file in
  output_string oc "not a socket\n";
  close_out oc;
  let refused path =
    match Serve.Server.serve ~socket:path ~jobs:1 () with
    | Ok () -> Alcotest.failf "served on %s" path
    | Error m ->
      Alcotest.(check bool) (path ^ ": error names the path") true
        (String.starts_with ~prefix:path m)
  in
  refused file;
  refused ".";
  refused "no-such-dir/d.sock";
  let ic = open_in_bin file in
  let kept = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  Alcotest.(check string) "regular file intact" "not a socket\n" kept;
  let stale = "serve-stale.sock" in
  if Sys.file_exists stale then Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  with_server ~socket:stale ~jobs:1 (fun socket ->
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
          match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j ->
            Alcotest.(check (option string)) "stale socket replaced" (Some "pong") (ev j)
          | _ -> Alcotest.fail "no pong on the replaced socket"))

(* [cdsspec_run client] whose stdout reader has gone (as under
   [| head -1]) says so in one line on stderr and exits 2, with no
   internal-error block; it closes its connection, and the daemon keeps
   serving. Its first write to stdout fails: the pipe's read end is
   closed before it starts. *)
let test_client_stdout_closed () =
  let exe = "../bin/cdsspec_run.exe" in
  with_server ~jobs:1 (fun socket ->
      List.iter
        (fun flags ->
          let out_r, out_w = Unix.pipe ~cloexec:true () in
          Unix.close out_r;
          let err_r, err_w = Unix.pipe ~cloexec:true () in
          let args =
            Array.of_list
              ([ exe; "client"; "--socket"; socket ] @ flags @ [ "lint"; "SPSC Queue" ])
          in
          let pid = Unix.create_process exe args Unix.stdin out_w err_w in
          Unix.close out_w;
          Unix.close err_w;
          let err = In_channel.input_all (Unix.in_channel_of_descr err_r) in
          Unix.close err_r;
          let _, status = Unix.waitpid [] pid in
          let what = String.concat " " ("client" :: flags) in
          Alcotest.(check string) (what ^ ": one line on stderr") "client: stdout closed\n" err;
          Alcotest.(check bool) (what ^ ": exit 2") true (status = Unix.WEXITED 2))
        [ [ "--json" ]; [] ];
      let c = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
          match Serve.Client.recv ~timeout:30. c with
          | Serve.Client.Msg j -> Alcotest.(check (option string)) "still serving" (Some "pong") (ev j)
          | _ -> Alcotest.fail "no pong after the client left"))

(* ------------------------------------------------------------------ *)
(* Client framing *)

(* Run [f] with a client connected to a listener of the test's own and
   [write], which sends crafted bytes from the peer end. [hang_up]
   closes the peer end. *)
let with_peer f =
  incr socket_counter;
  let path = Printf.sprintf "serve-peer-%d.sock" !socket_counter in
  if Sys.file_exists path then Sys.remove path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let c = Serve.Client.connect path in
  let peer, _ = Unix.accept lfd in
  Unix.close lfd;
  Sys.remove path;
  let open_ = ref true in
  let hang_up () =
    if !open_ then begin
      open_ := false;
      Unix.close peer
    end
  in
  let write s = ignore (Unix.write_substring peer s 0 (String.length s)) in
  Fun.protect
    ~finally:(fun () ->
      hang_up ();
      Serve.Client.close c)
    (fun () -> f c ~write ~hang_up)

let expect_msg c what line =
  match Serve.Client.recv ~timeout:10. c with
  | Serve.Client.Msg j -> Alcotest.(check string) what line (J.to_line j)
  | Serve.Client.Eof -> Alcotest.failf "%s: Eof" what
  | Serve.Client.Timeout -> Alcotest.failf "%s: Timeout" what

(* No complete line is buffered: the client reads what has arrived and
   times out. *)
let expect_timeout c what =
  match Serve.Client.recv ~timeout:0.05 c with
  | Serve.Client.Timeout -> ()
  | Serve.Client.Msg j -> Alcotest.failf "%s: got %s" what (J.to_line j)
  | Serve.Client.Eof -> Alcotest.failf "%s: Eof" what

let test_two_events_one_write () =
  with_peer (fun c ~write ~hang_up:_ ->
      write "{\"a\":1}\n{\"b\":2}\n";
      expect_msg c "first event" {|{"a":1}|};
      expect_msg c "second event" {|{"b":2}|};
      expect_timeout c "nothing more")

let test_event_split_over_writes () =
  with_peer (fun c ~write ~hang_up:_ ->
      write "{\"event\":\"res";
      expect_timeout c "half an event";
      write "ult\",\"job\":7}\n";
      expect_msg c "whole event" {|{"event":"result","job":7}|})

let test_bytes_after_newline_kept () =
  with_peer (fun c ~write ~hang_up:_ ->
      write "{\"a\":1}\n{\"b\":";
      expect_msg c "complete event" {|{"a":1}|};
      expect_timeout c "tail alone";
      write "2}\n";
      expect_msg c "tail completed by the next write" {|{"b":2}|})

(* A line longer than the client's 64 KiB read buffer takes several
   reads; the writer runs in its own domain because the socket buffer
   holds less than the line. *)
let test_line_longer_than_buffer () =
  with_peer (fun c ~write ~hang_up:_ ->
      let long = J.to_line (J.Obj [ ("s", J.Str (String.make 200_000 'x')) ]) in
      let writer = Domain.spawn (fun () -> write (long ^ "\n{\"b\":2}\n")) in
      expect_msg c "long event" long;
      expect_msg c "event after it" {|{"b":2}|};
      Domain.join writer)

let test_eof_after_line () =
  with_peer (fun c ~write ~hang_up ->
      write "{\"a\":1}\n";
      hang_up ();
      expect_msg c "last event" {|{"a":1}|};
      match Serve.Client.recv ~timeout:10. c with
      | Serve.Client.Eof -> ()
      | Serve.Client.Msg j -> Alcotest.failf "expected Eof, got %s" (J.to_line j)
      | Serve.Client.Timeout -> Alcotest.fail "expected Eof, got Timeout")

let test_eof_mid_line () =
  with_peer (fun c ~write ~hang_up ->
      write "{\"a\":1}\n{\"b\":";
      hang_up ();
      expect_msg c "complete event" {|{"a":1}|};
      match Serve.Client.recv ~timeout:10. c with
      | exception Failure m ->
        Alcotest.(check bool) ("truncated line: " ^ m) true
          (String.ends_with ~suffix:"truncated line" m)
      | _ -> Alcotest.fail "a close mid-line must raise Failure")

(* A peer that closes with our request unread resets the connection:
   [recv] reports that close as [Eof]. *)
let test_reset_is_eof () =
  with_peer (fun c ~write:_ ~hang_up ->
      Serve.Client.send c (J.Obj [ ("op", J.Str "ping") ]);
      hang_up ();
      match Serve.Client.recv ~timeout:10. c with
      | Serve.Client.Eof -> ()
      | Serve.Client.Msg j -> Alcotest.failf "expected Eof, got %s" (J.to_line j)
      | Serve.Client.Timeout -> Alcotest.fail "expected Eof, got Timeout")

let test_silent_peer () =
  with_peer (fun c ~write:_ ~hang_up:_ ->
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.recv ~timeout:0.2 c with
      | Serve.Client.Timeout -> ()
      | _ -> Alcotest.fail "a silent peer must give Timeout");
      Alcotest.(check bool) "waited for the timeout" true (Unix.gettimeofday () -. t0 >= 0.15))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "printer/parser roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "golden compact line" `Quick test_json_golden_line;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "ping and list" `Quick test_ping_and_list;
          Alcotest.test_case "unknown bench suggestions" `Quick test_unknown_bench_suggestions;
          Alcotest.test_case "bad override" `Quick test_bad_override;
          Alcotest.test_case "max_executions below 1" `Quick test_bad_cap;
          Alcotest.test_case "wrong field types" `Quick test_wrong_field_types;
          Alcotest.test_case "failed connect closes its socket" `Quick test_failed_connect_closes;
          Alcotest.test_case "concurrent clients" `Slow test_concurrent_clients;
          Alcotest.test_case "disconnect does not wedge pool" `Quick test_disconnect_does_not_wedge;
          Alcotest.test_case "warm store over protocol" `Quick test_store_warm_over_protocol;
          Alcotest.test_case "buggy job served from the store" `Quick
            test_buggy_store_over_protocol;
          Alcotest.test_case "a repeated hit is reused" `Quick test_repeated_hit_reused;
          Alcotest.test_case "accepted echoes the cap" `Quick test_accepted_echoes_cap;
          Alcotest.test_case "failed store save keeps the verdict" `Quick
            test_failed_save_keeps_verdict;
          Alcotest.test_case "abandoned fuzz job stops" `Quick test_abandoned_fuzz_stops;
          Alcotest.test_case "abandoned lint job stops" `Quick test_abandoned_lint_stops;
          Alcotest.test_case "store ready before connect" `Quick test_store_ready_before_connect;
          Alcotest.test_case "oversized request line" `Quick test_oversized_line;
          Alcotest.test_case "socket path rule" `Quick test_socket_path_rule;
          Alcotest.test_case "client with a closed stdout" `Quick test_client_stdout_closed;
        ] );
      ( "client framing",
        [
          Alcotest.test_case "two events in one write" `Quick test_two_events_one_write;
          Alcotest.test_case "event split over two writes" `Quick test_event_split_over_writes;
          Alcotest.test_case "bytes after a newline kept" `Quick test_bytes_after_newline_kept;
          Alcotest.test_case "line longer than the buffer" `Quick test_line_longer_than_buffer;
          Alcotest.test_case "eof after a line" `Quick test_eof_after_line;
          Alcotest.test_case "eof mid-line" `Quick test_eof_mid_line;
          Alcotest.test_case "close with the request unread" `Quick test_reset_is_eof;
          Alcotest.test_case "silent peer times out" `Quick test_silent_peer;
        ] );
    ]
