(* The fuzz engine's contracts: same seed ⇒ identical campaign (bug
   list, coverage count, minimized traces); a seeded buggy structure is
   found within the budget and its reported trace — original and
   minimized — reproduces the bug deterministically; minimization never
   lengthens a trace; fingerprints identify executions. *)

module P = Mc.Program
module E = Mc.Explorer
module F = Fuzz.Engine

(* The first buggy execution's action log, as [check -v] prints it. *)
let render = Format.asprintf "%a" C11.Execution.pp
open C11.Memory_order

let bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.fail ("unknown benchmark " ^ name)

let find_test (b : Structures.Benchmark.t) name =
  List.find (fun (t : Structures.Benchmark.test) -> t.test_name = name) b.tests

let fuzz_bench ?(executions = 2000) ?(bias = Fuzz.Bias.Prefer_stale_rf) ~seed
    (b : Structures.Benchmark.t) ords (t : Structures.Benchmark.test) =
  F.run
    ~config:
      {
        F.default_config with
        scheduler = { b.scheduler with sleep_sets = false };
        bias;
        max_executions = Some executions;
      }
    ~on_feasible:(Cdsspec.Checker.hook b.spec)
    ~seed (t.program ords)

(* ------------------------- determinism ---------------------------- *)

let strip_timing (s : F.stats) = { s with time = 0.; time_to_first_bug = None }

let test_same_seed_same_campaign () =
  let b = bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Structures.Ms_queue.known_buggy_ords in
  let r1 = fuzz_bench ~executions:800 ~seed:42 b ords t in
  let r2 = fuzz_bench ~executions:800 ~seed:42 b ords t in
  Alcotest.(check (list string))
    "bug keys"
    (List.map (fun (f : F.found) -> Mc.Bug.key f.bug) r1.found)
    (List.map (fun (f : F.found) -> Mc.Bug.key f.bug) r2.found);
  Alcotest.(check int) "coverage" r1.stats.coverage r2.stats.coverage;
  Alcotest.(check int) "feasible" r1.stats.feasible r2.stats.feasible;
  Alcotest.(check int) "executions" r1.stats.executions r2.stats.executions;
  Alcotest.(check bool)
    "stats equal modulo timing" true
    (strip_timing r1.stats = strip_timing r2.stats);
  List.iter2
    (fun (f1 : F.found) (f2 : F.found) ->
      Alcotest.(check (list int)) "trace" f1.trace f2.trace;
      Alcotest.(check (list int)) "minimized trace" f1.minimized f2.minimized;
      Alcotest.(check int) "finding execution" f1.execution f2.execution)
    r1.found r2.found

let test_bias_policies_all_run () =
  (* each policy must drive a campaign to completion, deterministically *)
  let b = bench "Treiber Stack" in
  let t = List.hd b.tests in
  let ords = Structures.Ords.default b.sites in
  List.iter
    (fun bias ->
      let r1 = fuzz_bench ~executions:300 ~bias ~seed:7 b ords t in
      let r2 = fuzz_bench ~executions:300 ~bias ~seed:7 b ords t in
      Alcotest.(check int)
        (Fuzz.Bias.to_string bias ^ ": coverage deterministic")
        r1.stats.coverage r2.stats.coverage;
      Alcotest.(check bool)
        (Fuzz.Bias.to_string bias ^ ": ran the budget")
        true
        (r1.stats.executions = 300))
    Fuzz.Bias.all

(* --------------------- finding a seeded bug ----------------------- *)

let test_finds_seeded_bug_and_reproduces () =
  let b = bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Structures.Ms_queue.known_buggy_ords in
  let r = fuzz_bench ~executions:3000 ~seed:1 b ords t in
  Alcotest.(check bool) "found the seeded bug" true (r.found <> []);
  let f = List.hd r.found in
  let key = Mc.Bug.key f.bug in
  (* the un-minimized trace reproduces *)
  let _, bugs =
    F.replay
      ~scheduler:{ b.scheduler with sleep_sets = false }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~decisions:f.trace (t.program ords)
  in
  Alcotest.(check bool)
    "original trace reproduces" true
    (List.exists (fun b' -> Mc.Bug.key b' = key) bugs);
  (* the minimized trace reproduces and is no longer *)
  let _, bugs' =
    F.replay
      ~scheduler:{ b.scheduler with sleep_sets = false }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~decisions:f.minimized (t.program ords)
  in
  Alcotest.(check bool)
    "minimized trace reproduces" true
    (List.exists (fun b' -> Mc.Bug.key b' = key) bugs');
  Alcotest.(check bool)
    "minimized no longer than original" true
    (List.length f.minimized <= List.length f.trace);
  (* time-to-first-bug was recorded *)
  Alcotest.(check bool) "time to first bug" true (r.stats.time_to_first_bug <> None)

let test_correct_orders_find_nothing () =
  let b = bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let r = fuzz_bench ~executions:500 ~seed:3 b (Structures.Ords.default b.sites) t in
  Alcotest.(check int) "no bugs on correct orders" 0 (List.length r.found);
  Alcotest.(check bool) "feasible runs happened" true (r.stats.feasible > 0)

let test_stop_on_first_bug () =
  let b = bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Structures.Ms_queue.known_buggy_ords in
  let r =
    F.run
      ~config:
        {
          F.default_config with
          scheduler = { b.scheduler with sleep_sets = false };
          max_executions = Some 3000;
          stop_on_first_bug = true;
        }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~seed:1 (t.program ords)
  in
  Alcotest.(check bool) "found" true (r.found <> []);
  Alcotest.(check bool) "stopped early" true r.stats.truncated;
  Alcotest.(check bool) "stopped at the finding run" true (r.stats.executions <= 3000)

(* -------------------------- replay -------------------------------- *)

(* Relaxed store buffering: every (r1, r2) outcome is reachable, so the
   decision list fully determines the outcome. *)
let sb_refs = (ref (-1), ref (-1))

let sb_program () =
  let r1, r2 = sb_refs in
  let x = P.malloc ~init:0 1 in
  let y = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        P.store Relaxed x 1;
        r1 := P.load Relaxed y)
  in
  let t2 =
    P.spawn (fun () ->
        P.store Relaxed y 1;
        r2 := P.load Relaxed x)
  in
  P.join t1;
  P.join t2

let test_replay_is_deterministic () =
  let r = F.run ~config:{ F.default_config with max_executions = Some 50 } ~seed:9 sb_program in
  Alcotest.(check int) "ran all" 50 r.stats.executions;
  (* replaying any decision list twice commits identical graphs *)
  let fingerprint decisions =
    let run_r, _ = F.replay ~decisions sb_program in
    C11.Execution.fingerprint run_r.exec
  in
  List.iter
    (fun decisions ->
      Alcotest.(check int64) "replay stable" (fingerprint decisions) (fingerprint decisions))
    [ []; [ 1 ]; [ 0; 1; 1 ]; [ 2; 1; 0; 1 ] ]

let test_replay_tolerates_garbage () =
  (* out-of-range and overlong indices clamp/ignore instead of crashing *)
  let run_r, _ = F.replay ~decisions:[ 99; 99; 99; 99; 99; 99; 99; 99; 99 ] sb_program in
  match run_r.outcome with
  | Mc.Scheduler.Complete | Pruned_loop_bound _ | Pruned_max_actions | Pruned_retry -> ()
  | Pruned_sleep_set -> Alcotest.fail "sleep sets must be off under replay"
  | Pruned_equiv -> Alcotest.fail "equivalence pruning must be off under replay"

(* ------------------------ fingerprints ---------------------------- *)

let test_fingerprint_coverage_bounds () =
  (* coverage counts distinct execution graphs (the canonical
     fingerprint the explorer's equivalence pruning uses): positive, a
     subset of the exhaustive graph set with sleep sets off, and bounded
     by its size *)
  let exhaustive =
    E.explore
      ~config:
        {
          E.default_config with
          scheduler = { Mc.Scheduler.default_config with sleep_sets = false };
        }
      sb_program
  in
  let r = F.run ~config:{ F.default_config with max_executions = Some 2000 } ~seed:5 sb_program in
  Alcotest.(check bool) "coverage positive" true (r.stats.coverage > 0);
  Alcotest.(check bool)
    "coverage bounded by exhaustive distinct graphs" true
    (r.stats.coverage <= exhaustive.stats.distinct_graphs);
  Alcotest.(check bool)
    "fuzzed graphs are a subset of the exhaustive graph set" true
    (List.for_all (fun fp -> List.mem fp exhaustive.graphs) r.graphs);
  (* the tiny SB tree should be near-saturated by 2000 runs *)
  Alcotest.(check bool)
    "most behaviours covered" true
    (r.stats.coverage * 2 >= exhaustive.stats.distinct_graphs)

(* Sleep sets explore one order of independent operations, and the
   fingerprint tells some of those orders apart: it hashes the SC order
   of seq_cst actions on different locations, and the ids concurrent
   mallocs receive. Fuzz runs keep sleep sets off, so a campaign's
   coverage is a subset of the sleep-sets-off graph set — which can be
   larger than the default exploration's [distinct_graphs]. *)
let test_coverage_within_sleep_off_set () =
  let graphs ~sleep_sets (scheduler : Mc.Scheduler.config) main =
    E.explore ~config:{ E.default_config with scheduler = { scheduler with sleep_sets } } main
  in
  let check name scheduler ~on ~off (campaign : F.result) main =
    let with_ss = graphs ~sleep_sets:true scheduler main in
    let without = graphs ~sleep_sets:false scheduler main in
    Alcotest.(check int) (name ^ ": graphs with sleep sets") on with_ss.stats.distinct_graphs;
    Alcotest.(check int) (name ^ ": graphs without") off without.stats.distinct_graphs;
    Alcotest.(check bool)
      (name ^ ": coverage within the sleep-off set")
      true
      (List.for_all (fun fp -> List.mem fp without.graphs) campaign.graphs)
  in
  (* the second thread's store lands before, between or after the
     first's two: three SC orders, one graph per order *)
  let sc_order () =
    let base = P.malloc ~init:0 2 in
    let t1 =
      P.spawn (fun () ->
          P.store Seq_cst (base + 1) 2;
          P.store Seq_cst (base + 1) 1)
    in
    let t2 = P.spawn (fun () -> P.store Seq_cst base 1) in
    P.join t1;
    P.join t2
  in
  let campaign = F.run ~config:{ F.default_config with max_executions = Some 200 } ~seed:3 sc_order in
  check "sc order" Mc.Scheduler.default_config ~on:2 ~off:3 campaign sc_order;
  Alcotest.(check int) "sc order: fuzz covers all three" 3 campaign.stats.coverage;
  let b = bench "MCS Lock" in
  let t = find_test b "handoff" in
  let ords = Structures.Ords.default b.sites in
  check "MCS Lock/handoff" b.scheduler ~on:30 ~off:36 (fuzz_bench ~seed:1 b ords t) (t.program ords)

(* ------------------------ minimization ---------------------------- *)

let nth_or_0 l n = match List.nth_opt l n with Some v -> v | None -> 0

let test_minimize_pure () =
  (* target: position 7 must hold 1 — everything else is noise *)
  let check l = nth_or_0 l 7 = 1 in
  let minimized, replays = Fuzz.Minimize.run ~check [ 3; 1; 4; 1; 5; 9; 2; 1 ] in
  Alcotest.(check (list int)) "only the load-bearing index survives"
    [ 0; 0; 0; 0; 0; 0; 0; 1 ] minimized;
  Alcotest.(check bool) "spent some replays" true (replays > 0)

let test_minimize_strips_tail () =
  let check l = nth_or_0 l 0 = 2 in
  let minimized, _ = Fuzz.Minimize.run ~check [ 2; 3; 1; 4 ] in
  Alcotest.(check (list int)) "tail stripped" [ 2 ] minimized

let test_minimize_fixed_point () =
  (* an already-minimal trace survives unchanged *)
  let check l = nth_or_0 l 0 = 1 && nth_or_0 l 1 = 2 in
  let minimized, _ = Fuzz.Minimize.run ~check [ 1; 2 ] in
  Alcotest.(check (list int)) "unchanged" [ 1; 2 ] minimized

(* --------------------- explorer compatibility --------------------- *)

let test_explorer_result_shim () =
  let b = bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Structures.Ms_queue.known_buggy_ords in
  let r = fuzz_bench ~executions:3000 ~seed:1 b ords t in
  let er = F.explorer_result r in
  Alcotest.(check int) "explored" r.stats.executions er.stats.explored;
  Alcotest.(check int) "feasible" r.stats.feasible er.stats.feasible;
  Alcotest.(check int) "buggy" r.stats.buggy er.stats.buggy;
  Alcotest.(check int) "no sleep-set prunes" 0 er.stats.pruned_sleep_set;
  Alcotest.(check int) "no equivalence prunes" 0 er.stats.pruned_equiv;
  Alcotest.(check int) "distinct graphs = coverage" r.stats.coverage er.stats.distinct_graphs;
  Alcotest.(check bool) "graph set carried over" true (r.graphs = er.graphs);
  Alcotest.(check (list string))
    "bug list carried over"
    (List.map (fun (f : F.found) -> Mc.Bug.key f.bug) r.found)
    (List.map Mc.Bug.key er.bugs);
  Alcotest.(check (option string))
    "first trace"
    (Option.map render r.first_buggy_exec)
    (Option.map render er.first_buggy_exec)

(* ------------------------ trace strings --------------------------- *)

let test_trace_string_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check (option (list int)))
        "roundtrip" (Some l)
        (F.trace_of_string (F.trace_to_string l)))
    [ []; [ 0 ]; [ 3; 0; 1; 2 ]; [ 10; 11; 0 ] ];
  Alcotest.(check (option (list int))) "garbage rejected" None (F.trace_of_string "1.x.2");
  Alcotest.(check (option (list int))) "negatives rejected" None (F.trace_of_string "1.-2")

(* -------------------- oversized fuzz workloads --------------------- *)

let test_oversized_workloads_fuzz () =
  (* beyond-exhaustive workloads: fuzz a few hundred runs through every
     test of each, checking the engine copes and correct orders stay
     clean *)
  List.iter
    (fun (b : Structures.Benchmark.t) ->
      List.iter
        (fun (t : Structures.Benchmark.test) ->
          let where = b.name ^ "/" ^ t.test_name in
          let r = fuzz_bench ~executions:150 ~seed:11 b (Structures.Ords.default b.sites) t in
          Alcotest.(check int) (where ^ ": ran the budget") 150 r.stats.executions;
          Alcotest.(check bool) (where ^ ": some feasible") true (r.stats.feasible > 0);
          Alcotest.(check int) (where ^ ": no bugs on correct orders") 0 (List.length r.found))
        b.tests)
    (Structures.Oversized.all ())

let test_oversized_seeded_bug () =
  (* the seeded-buggy oversized M&S queue is fuzz-findable; stop at the
     first finding — a full campaign on 4 threads × 16 calls surfaces
     dozens of distinct bug sites, and minimizing them all is bench
     territory, not test territory *)
  let b = Structures.Oversized.ms_queue in
  let t = List.hd b.tests in
  let r =
    F.run
      ~config:
        {
          F.default_config with
          scheduler = { b.scheduler with sleep_sets = false };
          max_executions = Some 2000;
          stop_on_first_bug = true;
        }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~seed:1
      (t.program Structures.Ms_queue.known_buggy_ords)
  in
  Alcotest.(check bool) "bug found in oversized workload" true (r.found <> []);
  let f = List.hd r.found in
  Alcotest.(check bool)
    "minimized no longer than original" true
    (List.length f.minimized <= List.length f.trace)

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same campaign" `Quick test_same_seed_same_campaign;
          Alcotest.test_case "all bias policies" `Quick test_bias_policies_all_run;
        ] );
      ( "bug-finding",
        [
          Alcotest.test_case "seeded bug found + reproduced" `Quick
            test_finds_seeded_bug_and_reproduces;
          Alcotest.test_case "correct orders clean" `Quick test_correct_orders_find_nothing;
          Alcotest.test_case "stop on first bug" `Quick test_stop_on_first_bug;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic" `Quick test_replay_is_deterministic;
          Alcotest.test_case "tolerates garbage" `Quick test_replay_tolerates_garbage;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "fingerprint bounds" `Quick test_fingerprint_coverage_bounds;
          Alcotest.test_case "within the sleep-off set" `Quick test_coverage_within_sleep_off_set;
        ] );
      ( "minimization",
        [
          Alcotest.test_case "pure ddmin" `Quick test_minimize_pure;
          Alcotest.test_case "strips tail" `Quick test_minimize_strips_tail;
          Alcotest.test_case "fixed point" `Quick test_minimize_fixed_point;
        ] );
      ( "compatibility",
        [
          Alcotest.test_case "explorer result shim" `Quick test_explorer_result_shim;
          Alcotest.test_case "trace strings" `Quick test_trace_string_roundtrip;
        ] );
      ( "oversized",
        [
          Alcotest.test_case "workloads fuzz clean" `Quick test_oversized_workloads_fuzz;
          Alcotest.test_case "seeded bug found" `Quick test_oversized_seeded_bug;
        ] );
    ]
