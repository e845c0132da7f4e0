(* Differential oracle for the arena engine: the copy-free
   snapshot/restore scheduler sessions must be observably identical to
   the legacy fresh-run-per-execution engine — same stats, same graph
   sets, same bug lists, same first buggy traces — over every registry
   structure, serially and under work-stealing parallelism, with and
   without equivalence pruning, with and without the specification
   checker. A seeded fuzz campaign is checked against both engines.
   Plus direct unit tests of the arena watermark snapshot/restore
   machinery. *)

module E = Mc.Explorer
module S = Mc.Scheduler
module P = Mc.Program
module B = Structures.Benchmark

(* The first buggy execution's action log, as [check -v] prints it. *)
let render = Format.asprintf "%a" C11.Execution.pp

let find name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.failf "unknown benchmark %s" name

(* Everything in [stats] that must agree between engines: wall-clock,
   allocation and snapshot counters are engine-specific by design. *)
let stats_key (s : E.stats) =
  [
    s.explored;
    s.feasible;
    s.pruned_loop_bound;
    s.pruned_max_actions;
    s.pruned_sleep_set;
    s.pruned_equiv;
    s.pruned_retry;
    s.distinct_graphs;
    s.buggy;
    (if s.truncated then 1 else 0);
  ]

(* [checked] runs the specification checker on every feasible
   execution, as the CLI does. *)
let run_bench ?loop_bound ?(checked = false) ~engine ~prune ~jobs ~cap (b : B.t) (t : B.test) =
  let scheduler =
    match loop_bound with None -> b.scheduler | Some loop_bound -> { b.scheduler with S.loop_bound }
  in
  let on_feasible = if checked then Some (Cdsspec.Checker.hook b.spec) else None in
  E.(
    Mc.Parallel.explore ~jobs ?on_feasible
      ~config:{ default_config with scheduler; engine; prune; max_executions = cap }
      (t.program (Structures.Ords.default b.sites)))

let check_identical name (a : E.result) (l : E.result) =
  Alcotest.(check (list int)) (name ^ ": stats") (stats_key l.stats) (stats_key a.stats);
  Alcotest.(check bool) (name ^ ": graph set") true (a.graphs = l.graphs);
  Alcotest.(check (list string))
    (name ^ ": bug keys")
    (List.map Mc.Bug.key l.bugs)
    (List.map Mc.Bug.key a.bugs);
  Alcotest.(check (option string))
    (name ^ ": first trace")
    (Option.map render l.first_buggy_exec)
    (Option.map render a.first_buggy_exec)

(* What work-stealing runs must agree on: with pruning the
   explored/pruned counters legitimately vary with donation timing. *)
let check_same_outputs name (a : E.result) (l : E.result) =
  Alcotest.(check bool) (name ^ ": graph set") true (a.graphs = l.graphs);
  Alcotest.(check (list string))
    (name ^ ": bug keys")
    (List.map Mc.Bug.key l.bugs)
    (List.map Mc.Bug.key a.bugs);
  Alcotest.(check (option string))
    (name ^ ": first trace")
    (Option.map render l.first_buggy_exec)
    (Option.map render a.first_buggy_exec)

(* Serial sweep: every exhaustive registry structure, both prune modes.
   The cap keeps the suite fast; serial DFS truncates deterministically,
   so capped rows still compare byte-for-byte. *)
let test_serial_differential () =
  List.iter
    (fun (b : B.t) ->
      List.iter
        (fun (t : B.test) ->
          List.iter
            (fun prune ->
              let name = Printf.sprintf "%s/%s prune=%b" b.name t.test_name prune in
              let a = run_bench ~engine:`Arena ~prune ~jobs:1 ~cap:(Some 10_000) b t in
              let l = run_bench ~engine:`Legacy ~prune ~jobs:1 ~cap:(Some 10_000) b t in
              check_identical name a l)
            [ true; false ])
        b.tests)
    Structures.Registry.exhaustive

(* Work-stealing parallelism: uncapped (a shared execution budget
   truncates at a scheduling-dependent point), so only each structure's
   first unit test — small enough to exhaust — is swept. With pruning
   only the order-independent outputs are compared. *)
let test_parallel_differential () =
  List.iter
    (fun name ->
      let b = find name in
      let t = List.hd b.tests in
      let a = run_bench ~engine:`Arena ~prune:false ~jobs:2 ~cap:None b t in
      let l = run_bench ~engine:`Legacy ~prune:false ~jobs:2 ~cap:None b t in
      check_identical (name ^ "/" ^ t.test_name ^ " -j2") a l;
      let a = run_bench ~engine:`Arena ~prune:true ~jobs:2 ~cap:None b t in
      let l = run_bench ~engine:`Legacy ~prune:true ~jobs:2 ~cap:None b t in
      check_same_outputs (name ^ "/" ^ t.test_name ^ " -j2 pruned") a l)
    [ "Lazy Init"; "Seqlock"; "Treiber Stack" ]

(* With the specification checker on: the first test of each exhaustive
   structure, both prune modes. Serial DFS is deterministic, so capped
   rows compare byte-for-byte. *)
let test_checked_differential () =
  List.iter
    (fun (b : B.t) ->
      let t = List.hd b.tests in
      List.iter
        (fun prune ->
          let run engine = run_bench ~checked:true ~engine ~prune ~jobs:1 ~cap:(Some 10_000) b t in
          check_identical
            (Printf.sprintf "%s/%s prune=%b checked" b.name t.test_name prune)
            (run `Arena) (run `Legacy))
        [ true; false ])
    Structures.Registry.exhaustive

(* Spin-heavy rows with pruning off and the checker on: long
   per-location histories and a restore before almost every run, the
   regime where restore-replay does the most work. Dekker Lock's
   [contend] loop writes on its retry path, so it stays a plain loop
   under the loop bound (single-location waits are awaits, and read-only
   retry loops such as Peterson's wait are [retry]s; neither spins). *)
let test_spin_differential () =
  List.iter
    (fun (name, test_name, loop_bound) ->
      let b = find name in
      let t = List.find (fun (t : B.test) -> t.test_name = test_name) b.tests in
      let run engine =
        run_bench ?loop_bound ~checked:true ~engine ~prune:false ~jobs:1 ~cap:(Some 20_000) b t
      in
      let a = run `Arena in
      check_identical (Printf.sprintf "%s/%s prune=false" name test_name) a (run `Legacy);
      if loop_bound <> None then
        Alcotest.(check bool) (name ^ ": still spins to the cap") true
          (a.stats.truncated && a.stats.pruned_loop_bound > 0))
    [ ("Dekker Lock", "two-threads", Some 48); ("Chase-Lev Deque", "small", None) ]

(* MCS Lock under -j2 work stealing with the checker on. *)
let test_checked_parallel_differential () =
  let b = find "MCS Lock" in
  let t = List.hd b.tests in
  let run engine = run_bench ~checked:true ~engine ~prune:true ~jobs:2 ~cap:None b t in
  check_same_outputs "MCS Lock -j2 checked" (run `Arena) (run `Legacy)

(* Same seed, same campaign: the fuzzer rides the same commit path as
   the engines, so a seeded campaign must be reproducible down to the
   minimized reproducer traces. *)
let test_fuzz_deterministic () =
  let b = find "Seqlock" in
  let t = List.hd b.tests in
  let campaign () =
    Fuzz.Engine.run
      ~config:
        {
          Fuzz.Engine.default_config with
          scheduler = { b.scheduler with S.sleep_sets = false };
          max_executions = Some 2_000;
        }
      ~seed:42
      (t.program (Structures.Ords.default b.sites))
  in
  let r1 = campaign () and r2 = campaign () in
  Alcotest.(check int) "executions" r1.stats.executions r2.stats.executions;
  Alcotest.(check int) "feasible" r1.stats.feasible r2.stats.feasible;
  Alcotest.(check int) "coverage" r1.stats.coverage r2.stats.coverage;
  Alcotest.(check (list string))
    "found bugs"
    (List.map (fun (f : Fuzz.Engine.found) -> Mc.Bug.key f.bug) r1.found)
    (List.map (fun (f : Fuzz.Engine.found) -> Mc.Bug.key f.bug) r2.found);
  Alcotest.(check (list string))
    "reproducer traces"
    (List.map (fun (f : Fuzz.Engine.found) -> Fuzz.Engine.trace_to_string f.minimized) r1.found)
    (List.map (fun (f : Fuzz.Engine.found) -> Fuzz.Engine.trace_to_string f.minimized) r2.found)

(* Commit paths agree: a seeded fuzz campaign runs each execution fresh
   under sampled picks, the arena engine restores a snapshot and feeds
   its threads their logged values, and [`Legacy] runs each DFS
   execution fresh. With sleep sets off every graph the campaign commits
   must be one both exhaustive engines commit, and every bug it finds
   one they find — on the seeded-buggy M&S queue, so the bug half
   cannot go vacuous. *)
let test_fuzz_within_engines () =
  let b = find "M&S Queue" in
  let t = List.find (fun (t : B.test) -> t.test_name = "1enq-1deq") b.tests in
  let ords = Structures.Ms_queue.known_buggy_ords in
  let scheduler = { b.scheduler with S.sleep_sets = false } in
  let on_feasible = Cdsspec.Checker.hook b.spec in
  let campaign =
    Fuzz.Engine.run
      ~config:{ Fuzz.Engine.default_config with scheduler; max_executions = Some 2_000 }
      ~on_feasible ~seed:1 (t.program ords)
  in
  Alcotest.(check bool) "fuzz: found a bug" true (campaign.found <> []);
  List.iter
    (fun (name, engine) ->
      let r =
        E.(
          Mc.Parallel.explore ~jobs:1 ~on_feasible
            ~config:{ default_config with scheduler; engine; prune = false; max_executions = None }
            (t.program ords))
      in
      Alcotest.(check bool) (name ^ ": exhaustive") false r.stats.truncated;
      Alcotest.(check bool)
        (name ^ ": holds every fuzzed graph")
        true
        (List.for_all (fun fp -> List.mem fp r.graphs) campaign.graphs);
      let keys = List.map Mc.Bug.key r.bugs in
      List.iter
        (fun (f : Fuzz.Engine.found) ->
          let k = Mc.Bug.key f.bug in
          Alcotest.(check bool) (name ^ ": finds " ^ k) true (List.mem k keys))
        campaign.found)
    [ ("arena", `Arena); ("legacy", `Legacy) ]

(* Direct watermark unit test: mark, commit past it, restore, and the
   arena is back — lengths and fingerprint — including across nested
   (stacked) marks restored out of order. *)
let test_watermark_nested () =
  let exec = C11.Execution.create () in
  let commit_pair tid loc v =
    ignore (C11.Execution.commit_store exec ~tid ~mo:C11.Memory_order.Relaxed ~loc ~value:v ());
    ignore (C11.Execution.commit_load exec ~tid ~mo:C11.Memory_order.Relaxed ~loc ~rf:None ())
  in
  ignore (C11.Execution.commit_start exec ~tid:0);
  commit_pair 0 1 10;
  let m1 = C11.Execution.mark exec in
  let n1 = C11.Execution.num_actions exec in
  let fp1 = C11.Execution.fingerprint exec in
  commit_pair 0 2 20;
  let m2 = C11.Execution.mark exec in
  let n2 = C11.Execution.num_actions exec in
  let fp2 = C11.Execution.fingerprint exec in
  commit_pair 0 3 30;
  Alcotest.(check bool) "grew past m2" true (C11.Execution.num_actions exec > n2);
  (* inner restore first *)
  C11.Execution.restore exec m2;
  Alcotest.(check int) "m2 length" n2 (C11.Execution.num_actions exec);
  Alcotest.(check int64) "m2 fingerprint" fp2 (C11.Execution.fingerprint exec);
  (* re-grow along a different branch, then rewind all the way to m1 *)
  commit_pair 0 4 40;
  C11.Execution.restore exec m1;
  Alcotest.(check int) "m1 length" n1 (C11.Execution.num_actions exec);
  Alcotest.(check int64) "m1 fingerprint" fp1 (C11.Execution.fingerprint exec);
  (* the rewound graph is still a live arena: committing works *)
  commit_pair 0 5 50;
  Alcotest.(check int) "regrew" (n1 + 2) (C11.Execution.num_actions exec)

(* Regression: after a restore, *every* thread must re-execute its side
   effects — including one that had already finished by the snapshot.
   User closures may share mutable state that the main closure resets
   each execution (the SC-oracle observation pattern below); preserving
   any fiber across a restore wipes its recorded observations without
   re-applying them. This program has exactly one outcome (every CAS
   fails: nothing ever stores 1 first), but a partial replay reports
   phantom outcomes with torn observation lists. *)
let test_side_effect_replay () =
  let module OS = Set.Make (struct
    type t = int list

    let compare = compare
  end) in
  let observations = Array.make 3 [] in
  let program () =
    let l = P.malloc ~init:0 1 in
    Array.fill observations 0 3 [];
    let record i v = observations.(i) <- observations.(i) @ [ v ] in
    let t0 =
      P.spawn (fun () ->
          record 0 (if P.cas Seq_cst l ~expected:1 ~desired:2 then 1 else 0);
          record 0 (P.load Seq_cst l))
    in
    (* finishes after a single load — the fiber a partial replay keeps *)
    let t1 = P.spawn (fun () -> record 1 (P.load Seq_cst l)) in
    let t2 =
      P.spawn (fun () ->
          record 2 (P.load Seq_cst l);
          record 2 (if P.cas Seq_cst l ~expected:1 ~desired:2 then 1 else 0);
          record 2 (if P.cas Seq_cst l ~expected:2 ~desired:1 then 1 else 0))
    in
    P.join t0;
    P.join t1;
    P.join t2
  in
  let outcomes engine =
    let o = ref OS.empty in
    ignore
      (E.explore
         ~config:{ E.default_config with engine }
         ~on_feasible:(fun _ _ ->
           o := OS.add (List.concat (Array.to_list observations)) !o;
           [])
         program);
    !o
  in
  let a = outcomes `Arena and l = outcomes `Legacy in
  Alcotest.(check int) "single outcome" 1 (OS.cardinal a);
  Alcotest.(check bool) "matches legacy" true (OS.equal a l)

(* Session-level snapshot/restore: drive a session through a full DFS by
   hand (the explorer's backtracking contract) and check that every
   execution matches a fresh legacy run of the same trace, that restores
   happen, and that the arena rewinds rather than accumulates. *)
let test_session_restore () =
  let program () =
    let l = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Relaxed l 1) in
    let t2 = P.spawn (fun () -> ignore (P.load Relaxed l)) in
    P.join t1;
    P.join t2
  in
  let config = { S.default_config with sleep_sets = false } in
  let trace = C11.Vec.create () in
  let session = S.session_create ~config ~trace program in
  let arena = S.session_exec session in
  let fps = ref [] in
  let lens = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let r = S.session_run session in
    Alcotest.(check bool) "complete" true (r.outcome = S.Complete);
    Alcotest.(check bool) "bug-free" true (r.bugs = []);
    fps := C11.Execution.fingerprint r.exec :: !fps;
    lens := C11.Execution.num_actions r.exec :: !lens;
    (* the result's graph is the session's single arena *)
    Alcotest.(check bool) "arena identity" true (r.exec == arena);
    if not (E.backtrack trace) then continue_ := false
  done;
  let snapshots, restores = S.session_counters session in
  Alcotest.(check bool) "took snapshots" true (snapshots > 0);
  Alcotest.(check int) "one restore per re-run" (List.length !fps - 1) restores;
  (* every execution of this program commits the same number of actions:
     if restore failed to truncate the arena the lengths would climb *)
  (match !lens with
  | [] -> Alcotest.fail "no executions"
  | n :: rest -> List.iter (Alcotest.(check int) "arena rewound between runs" n) rest);
  (* same DFS with the legacy engine: same graphs in the same order *)
  let legacy_trace = C11.Vec.create () in
  let legacy_fps = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let r = S.run ~config ~trace:legacy_trace program in
    legacy_fps := C11.Execution.fingerprint r.exec :: !legacy_fps;
    if not (E.backtrack legacy_trace) then continue_ := false
  done;
  Alcotest.(check bool) "graphs match legacy" true (!fps = !legacy_fps)

(* ------------------------------------------------------------------ *)
(* Fiber stacks *)

(* Peak resident set size of this process in kB ([VmHWM]), when the
   platform reports it. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Some (Scanf.sscanf line "VmHWM: %d kB" Fun.id)
      | _ -> go ()
      | exception End_of_file -> None
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* Every restore discards the paused fibers of the run it rewinds, and
   each search ends with some suspended; their stacks must go back to
   the runtime. Seqlock/2write-1read with pruning off (103,170 runs)
   drops enough of them that a leak grows the peak RSS by about 120 MB
   per exploration; with pruning on its retry loops leave 2,618 runs,
   too few to clear the bound with a margin. *)
let test_dropped_fibers_freed () =
  let b = find "Seqlock" in
  let t = List.find (fun (t : B.test) -> t.test_name = "2write-1read") b.tests in
  let explore () =
    ignore
      (E.explore
         ~config:{ E.default_config with scheduler = b.scheduler; prune = false }
         (t.program (Structures.Ords.default b.sites)))
  in
  (* the first exploration sizes the heap *)
  explore ();
  match peak_rss_kb () with
  | None -> Alcotest.skip ()
  | Some before ->
    let runs = 4 in
    for _ = 1 to runs do
      explore ()
    done;
    let grown = Option.get (peak_rss_kb ()) - before in
    Alcotest.(check bool)
      (Printf.sprintf "peak RSS grew %d kB over %d explorations (bound 16 MB)" grown runs)
      true
      (grown < 16 * 1024)

let () =
  Alcotest.run "arena"
    [
      ("fiber-stacks", [ Alcotest.test_case "dropped fibers freed" `Quick test_dropped_fibers_freed ]);
      ( "differential",
        [
          Alcotest.test_case "exhaustive registry, serial" `Quick test_serial_differential;
          Alcotest.test_case "work stealing -j2" `Quick test_parallel_differential;
          Alcotest.test_case "seeded fuzz campaign" `Quick test_fuzz_deterministic;
          Alcotest.test_case "checker on, first tests" `Quick test_checked_differential;
          Alcotest.test_case "spin rows, prune off" `Quick test_spin_differential;
          Alcotest.test_case "MCS Lock -j2, checker on" `Quick test_checked_parallel_differential;
        ] );
      ("commit-modes", [ Alcotest.test_case "seeded fuzz" `Quick test_fuzz_within_engines ]);
      ( "snapshots",
        [
          Alcotest.test_case "nested watermarks" `Quick test_watermark_nested;
          Alcotest.test_case "side-effect replay" `Quick test_side_effect_replay;
          Alcotest.test_case "session restore" `Quick test_session_restore;
        ] );
    ]
