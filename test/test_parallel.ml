(* The parallel explorer's determinism contract: for exhaustive runs
   with pruning off, [Parallel.explore ~jobs:n] must report exactly the
   serial explorer's stats, bug list (same keys, same order) and first
   buggy trace — and subtrees pinned by frozen decision prefixes, the
   unit work stealing donates, must cover the decision tree with no
   duplicates. With pruning on, the run-count stats are split-dependent
   by design, but the semantic outputs (distinct-graph set, bug list,
   first buggy trace) must still match the serial pruned run. *)

module P = Mc.Program
module E = Mc.Explorer
module Par = Mc.Parallel
module Vec = C11.Vec

(* The first buggy execution's action log, as [check -v] prints it. *)
let render = Format.asprintf "%a" C11.Execution.pp
open C11.Memory_order

let bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.fail ("unknown benchmark " ^ name)

let explore_bench ?(prune = false) ~jobs (b : Structures.Benchmark.t) ords
    (t : Structures.Benchmark.test) =
  Par.explore ~jobs
    ~config:{ E.default_config with scheduler = b.scheduler; prune }
    ~on_feasible:(Cdsspec.Checker.hook b.spec)
    (t.program ords)

(* ------------------------ determinism ----------------------------- *)

(* Pruning off: runs partition exactly across work items, so every
   counter must match the serial explorer. *)
let check_deterministic ?ords name =
  let b = bench name in
  let t = List.hd b.tests in
  let ords = match ords with Some o -> o | None -> Structures.Ords.default b.sites in
  let s = explore_bench ~jobs:1 b ords t in
  let p = explore_bench ~jobs:4 b ords t in
  Alcotest.(check int) (name ^ ": explored") s.stats.explored p.stats.explored;
  Alcotest.(check int) (name ^ ": feasible") s.stats.feasible p.stats.feasible;
  Alcotest.(check int) (name ^ ": buggy") s.stats.buggy p.stats.buggy;
  Alcotest.(check int)
    (name ^ ": pruned (loop bound)")
    s.stats.pruned_loop_bound p.stats.pruned_loop_bound;
  Alcotest.(check int)
    (name ^ ": pruned (sleep set)")
    s.stats.pruned_sleep_set p.stats.pruned_sleep_set;
  Alcotest.(check int) (name ^ ": pruned (retry)") s.stats.pruned_retry p.stats.pruned_retry;
  Alcotest.(check int) (name ^ ": distinct graphs") s.stats.distinct_graphs p.stats.distinct_graphs;
  Alcotest.(check bool) (name ^ ": truncated") s.stats.truncated p.stats.truncated;
  Alcotest.(check bool) (name ^ ": graph sets") true (s.graphs = p.graphs);
  Alcotest.(check (list string))
    (name ^ ": bug keys")
    (List.map Mc.Bug.key s.bugs) (List.map Mc.Bug.key p.bugs);
  Alcotest.(check (option string))
    (name ^ ": first buggy trace")
    (Option.map render s.first_buggy_exec) (Option.map render p.first_buggy_exec)

let test_registry_determinism () =
  List.iter check_deterministic
    [ "Treiber Stack"; "SPSC Queue"; "Ticket Lock"; "Seqlock"; "M&S Queue" ]

(* Pruning on: semantic outputs only — graph set, bug keys in order,
   first buggy trace. Run counts are split-dependent (each work item has
   its own visited table), so they are deliberately not compared. *)
let check_pruned_deterministic ?ords name =
  let b = bench name in
  let t = List.hd b.tests in
  let ords = match ords with Some o -> o | None -> Structures.Ords.default b.sites in
  let s = explore_bench ~prune:true ~jobs:1 b ords t in
  let p = explore_bench ~prune:true ~jobs:4 b ords t in
  Alcotest.(check bool) (name ^ ": pruned graph sets") true (s.graphs = p.graphs);
  Alcotest.(check int)
    (name ^ ": pruned distinct graphs")
    s.stats.distinct_graphs p.stats.distinct_graphs;
  Alcotest.(check (list string))
    (name ^ ": pruned bug keys")
    (List.map Mc.Bug.key s.bugs) (List.map Mc.Bug.key p.bugs);
  Alcotest.(check (option string))
    (name ^ ": pruned first buggy trace")
    (Option.map render s.first_buggy_exec) (Option.map render p.first_buggy_exec)

let test_pruned_determinism () =
  List.iter check_pruned_deterministic [ "Treiber Stack"; "Seqlock"; "M&S Queue" ];
  check_pruned_deterministic ~ords:(snd (List.hd Structures.Ms_queue.known_bugs)) "M&S Queue"

(* A buggy configuration: parallel runs must find the same deduplicated
   bug set and elect the same first buggy trace as the serial DFS. *)
let test_buggy_determinism () =
  let ords = snd (List.hd Structures.Ms_queue.known_bugs) in
  check_deterministic ~ords "M&S Queue";
  let b = bench "M&S Queue" in
  let t = List.hd b.Structures.Benchmark.tests in
  let r = explore_bench ~jobs:4 b ords t in
  Alcotest.(check bool) "weakened M&S queue is buggy" true (r.bugs <> [])

(* Different jobs counts agree with each other, not just with jobs=1. *)
let test_jobs_invariance () =
  let b = bench "Seqlock" in
  let t = List.hd b.Structures.Benchmark.tests in
  let ords = Structures.Ords.default b.Structures.Benchmark.sites in
  let r2 = explore_bench ~jobs:2 b ords t in
  let r3 = explore_bench ~jobs:3 b ords t in
  Alcotest.(check int) "explored 2 = 3 jobs" r2.stats.explored r3.stats.explored;
  Alcotest.(check int) "feasible 2 = 3 jobs" r2.stats.feasible r3.stats.feasible;
  Alcotest.(check bool) "graphs 2 = 3 jobs" true (r2.graphs = r3.graphs)

(* Truncation under a global cap: not deterministic, but the cap must
   engage and the run must be flagged. *)
let test_truncation () =
  let b = bench "Seqlock" in
  let t = List.hd b.Structures.Benchmark.tests in
  let ords = Structures.Ords.default b.Structures.Benchmark.sites in
  let r =
    Par.explore ~jobs:4
      ~config:
        {
          E.default_config with
          scheduler = b.scheduler;
          max_executions = Some 10;
          prune = false;
        }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program ords)
  in
  Alcotest.(check bool) "truncated" true r.stats.truncated;
  Alcotest.(check bool) "stopped early" true (r.stats.explored < 842);
  Alcotest.(check bool) "ran at least the cap" true (r.stats.explored >= 10)

(* The caller's [stop] holds under work stealing: each worker polls it
   after every run, and once it returns true the pool halts. A stop that
   turns true at its [n]th poll leaves at most one more run, the one the
   other worker may be in. *)
let test_stop () =
  let b = bench "Seqlock" in
  let t = List.hd b.Structures.Benchmark.tests in
  let n = 50 in
  let polls = Atomic.make 0 in
  let stop () = Atomic.fetch_and_add polls 1 + 1 >= n in
  let r =
    Par.explore ~jobs:2 ~stop
      ~config:{ E.default_config with scheduler = b.scheduler; prune = false }
      (t.program (Structures.Ords.default b.sites))
  in
  Alcotest.(check bool) "truncated" true r.stats.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d, between %d and %d" r.stats.explored n (n + 1))
    true
    (r.stats.explored >= n && r.stats.explored <= n + 1)

(* ------------------- prefix partition coverage -------------------- *)

(* Store buffering with relaxed accesses: a small tree with both
   scheduling and reads-from branching at every level. *)
let sb_program () =
  let x = P.malloc ~init:0 1 in
  let y = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        P.store Relaxed x 1;
        ignore (P.load Relaxed y))
  in
  let t2 =
    P.spawn (fun () ->
        P.store Relaxed y 1;
        ignore (P.load Relaxed x))
  in
  P.join t1;
  P.join t2

(* Every realizable decision prefix of length <= [depth], in DFS order:
   run once to materialize the current path, snapshot its first [depth]
   decisions, then truncate the trace to the prefix and backtrack
   within it. *)
let prefixes ~config ~depth main =
  let trace : Mc.Scheduler.decision Vec.t = Vec.create () in
  let acc = ref [] in
  let continue_ = ref true in
  while !continue_ do
    ignore (Oracle.Explorer.run ~config ~trace main);
    let k = min depth (Vec.length trace) in
    acc := Array.init k (fun i -> E.copy_decision (Vec.get trace i)) :: !acc;
    Vec.truncate trace k;
    if not (E.backtrack trace) then continue_ := false
  done;
  List.rev !acc

let prefix_key p =
  Array.to_list
    (Array.map (fun d -> (Mc.Scheduler.decision_arity d, Mc.Scheduler.decision_chosen d)) p)

let test_prefix_cover () =
  (* Pruning off: each subtree has its own visited table, so pruned runs
     would not sum across a partition — exact-coverage sums require the
     unpruned explorer. *)
  let config = { E.default_config with prune = false } in
  let serial = E.explore ~config sb_program in
  Alcotest.(check bool) "tree is nontrivial" true (serial.stats.explored > 10);
  List.iter
    (fun depth ->
      let ps = prefixes ~config:config.scheduler ~depth sb_program in
      let keys = List.map prefix_key ps in
      Alcotest.(check int)
        (Printf.sprintf "depth %d: prefixes distinct" depth)
        (List.length keys)
        (List.length (List.sort_uniq Stdlib.compare keys));
      let explored, feasible =
        List.fold_left
          (fun (e, f) p ->
            let trace = Vec.create () in
            Array.iter (Vec.push trace) p;
            let r = E.explore_subtree ~config ~trace ~frozen:(Array.length p) sb_program in
            (* the frozen prefix is never popped by backtracking *)
            Alcotest.(check int)
              (Printf.sprintf "depth %d: frozen prefix survives" depth)
              (Array.length p) (Vec.length trace);
            (e + r.stats.explored, f + r.stats.feasible))
          (0, 0) ps
      in
      (* subtrees partition the tree: every run explored exactly once *)
      Alcotest.(check int)
        (Printf.sprintf "depth %d: explored covered exactly" depth)
        serial.stats.explored explored;
      Alcotest.(check int)
        (Printf.sprintf "depth %d: feasible covered exactly" depth)
        serial.stats.feasible feasible)
    [ 1; 2; 3; 5; 8 ]

(* backtrack ~frozen flips only decisions beyond the frozen prefix. *)
let test_backtrack_frozen () =
  let trace : Mc.Scheduler.decision Vec.t = Vec.create () in
  Vec.push trace
    (Mc.Scheduler.Sched { sched_chosen = 0; candidates = [| 0; 1 |]; state = None });
  Vec.push trace (Mc.Scheduler.Choice { choice_chosen = 0; num = 2 });
  (* frozen=1: the Choice flips, then exhausts; the Sched never flips *)
  Alcotest.(check bool) "first flip" true (E.backtrack ~frozen:1 trace);
  Alcotest.(check int) "choice bumped" 1
    (Mc.Scheduler.decision_chosen (Vec.get trace 1));
  Alcotest.(check bool) "subtree exhausted" false (E.backtrack ~frozen:1 trace);
  Alcotest.(check int) "frozen decision intact" 0
    (Mc.Scheduler.decision_chosen (Vec.get trace 0));
  Alcotest.(check int) "trace truncated to prefix" 1 (Vec.length trace)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "registry benchmarks (steal)" `Quick test_registry_determinism;
          Alcotest.test_case "pruned semantic determinism" `Quick test_pruned_determinism;
          Alcotest.test_case "buggy configuration" `Quick test_buggy_determinism;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "stop at -j2" `Quick test_stop;
        ] );
      ( "partition",
        [
          Alcotest.test_case "prefix coverage" `Quick test_prefix_cover;
          Alcotest.test_case "backtrack frozen" `Quick test_backtrack_frozen;
        ] );
    ]
