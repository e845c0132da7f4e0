(* Regenerates every table and figure in the paper's evaluation
   (section 6), plus the ablations called out in DESIGN.md.

   Usage:
     bench/main.exe            run everything (fig7 fig8 expr known ablation timing fuzz)
     bench/main.exe fig7       Figure 7  — benchmark results
     bench/main.exe fig8       Figure 8  — bug-injection detection
     bench/main.exe expr       section 6.2 expressiveness statistics
     bench/main.exe known      section 6.4.1 known bugs
     bench/main.exe ablation   design-choice ablations
     bench/main.exe timing     wall-clock timing per Figure-7 row; writes BENCH_PR1.json
     bench/main.exe fuzz       randomized vs exhaustive exploration; writes BENCH_PR2.json
     bench/main.exe lint       memory-order lint + weakening advisor; writes BENCH_PR3.json
     bench/main.exe explore    equivalence pruning + work stealing; writes BENCH_PR5.json
     bench/main.exe replay     arena engine vs legacy re-execution; writes BENCH_PR6.json
                               (--smoke: capped CI subset; hard-fails on any divergence)
     bench/main.exe serve      persistent store cold-vs-warm + serve daemon throughput;
                               writes BENCH_PR7.json (--smoke: capped CI subset;
                               hard-fails on any cold/warm verdict divergence)
     bench/main.exe rf         incremental rf-consistency kernel on vs off; writes
                               BENCH_PR9.json (--smoke: capped CI subset; hard-fails
                               on any graph-set or verdict divergence)

   `--jobs N` (or CDSSPEC_JOBS=N) runs every exploration on N domains;
   0 means one per recommended core. The timing job records the jobs
   count in BENCH_PR1.json so perf trajectories are comparable. *)

module E = Mc.Explorer
module B = Structures.Benchmark
module X = Harness.Experiments

let fig7_benches =
  (* the ten rows of the paper's Figure 7 *)
  List.filter_map Structures.Registry.find
    [
      "Chase-Lev Deque";
      "SPSC Queue";
      "RCU";
      "Lockfree Hashtable";
      "MCS Lock";
      "MPMC Queue";
      "M&S Queue";
      "Linux RW Lock";
      "Seqlock";
      "Ticket Lock";
    ]

let extra_benches =
  List.filter_map Structures.Registry.find
    [
      "Blocking Queue";
      "Atomic Register";
      "Contention-Free Lock";
      "Treiber Stack";
      "Peterson Lock";
      "Barrier";
      "RCU Grace";
      "Lockfree Set";
      "Dekker Lock";
      "Lamport Ring";
      "CLH Lock";
      "Lazy Init";
    ]

let section title = Format.printf "@.== %s ==@.@." title

(* Shared provenance header for every BENCH_*.json emitter, so the
   perf-trajectory series is joinable across PRs: without rev/date/host
   the files cannot be attributed to a commit or a machine. *)
let metadata_json () =
  let rev =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let date =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let host = try Unix.gethostname () with _ -> "unknown" in
  Printf.sprintf "\"rev\": %S,\n  \"date\": %S,\n  \"host\": %S,\n  \"cores\": %d,\n  \
                  \"engine_rev\": %S"
    rev date host
    (Domain.recommended_domain_count ())
    Mc.Engine_rev.current

(* Every BENCH_*.json emitter shares this skeleton: the
   CDSSPEC_BENCH_OUT path override, the provenance header above
   (engine_rev is [Mc.Engine_rev.current] — the same constant whose
   change flushes the persistent store, so a trajectory file and a store
   directory are attributable to the same engine), and the trailing
   "wrote ..." line. [body] emits everything between the header and the
   closing brace, ending after its last array's "  ]\n". *)
let write_bench_file ~default ~pr ?(note = "") body =
  let path =
    match Sys.getenv_opt "CDSSPEC_BENCH_OUT" with Some p -> p | None -> default
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  %s,\n  \"pr\": %d,\n" (metadata_json ()) pr;
  body oc;
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "@.wrote %s%s@." path note

(* Set once from --jobs/CDSSPEC_JOBS before any job runs. *)
let jobs = ref 1

let limits () = { X.default_limits with jobs = !jobs }

let run_fig7 () =
  section "Figure 7: benchmark results (paper: all rows finish within seconds)";
  let rows = X.figure7 ~limits:(limits ()) fig7_benches in
  X.pp_figure7 Format.std_formatter rows;
  Format.printf "@.Extensions (not in the paper's table):@.";
  X.pp_figure7 Format.std_formatter (X.figure7 ~limits:(limits ()) extra_benches)

let run_fig8 () =
  section "Figure 8: bug-injection detection (paper: 93%% overall, MPMC the outlier)";
  let rows = X.figure8 ~limits:(limits ()) fig7_benches in
  X.pp_figure8 Format.std_formatter rows;
  (match X.undetected rows with
  | [] -> Format.printf "@.No undetected injections.@."
  | l ->
    Format.printf
      "@.Undetected injections (candidate overly-strong parameters, cf. section 6.4.3):@.";
    List.iter (fun (b, s) -> Format.printf "  %-22s %s@." b s) l);
  Format.printf "@.Extensions (not in the paper's table):@.";
  X.pp_figure8 Format.std_formatter (X.figure8 ~limits:(limits ()) extra_benches)

let run_expr () =
  section "Section 6.2: expressiveness statistics";
  Format.printf
    "(paper: 11.5 lines of spec per benchmark, 27 API methods, 33 ordering points = 1.22 per \
     method, 7 admissibility lines)@.@.";
  X.pp_expressiveness Format.std_formatter (X.expressiveness fig7_benches)

let run_known () =
  section "Section 6.4.1: known bugs (paper: 3 known bugs detected)";
  X.pp_known_bugs Format.std_formatter (X.known_bugs ~limits:(limits ()) ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let explore_with ?(scheduler = Mc.Scheduler.default_config) ?checker (b : B.t) (t : B.test)
    ~ords =
  E.explore
    ~config:{ E.default_config with scheduler; max_executions = Some 400_000 }
    ~on_feasible:(Cdsspec.Checker.hook ?config:checker b.spec)
    (t.program ords)

let find_test (b : B.t) name = List.find (fun (t : B.test) -> t.test_name = name) b.tests

let ablation_sleep_sets () =
  Format.printf "@.-- Ablation: sleep-set partial-order reduction --@.";
  Format.printf "%-18s %-14s %10s %10s %8s@." "Benchmark" "Test" "explored" "feasible" "time";
  let cases =
    [
      (Structures.Ms_queue.benchmark, "2enq-2deq");
      (Structures.Blocking_queue.benchmark, "racing-enqs");
      (Structures.Ticket_lock.benchmark, "two-threads");
    ]
  in
  List.iter
    (fun ((b : B.t), test_name) ->
      let t = find_test b test_name in
      let ords = Structures.Ords.default b.sites in
      List.iter
        (fun sleep_sets ->
          let r = explore_with ~scheduler:{ b.scheduler with sleep_sets } b t ~ords in
          Format.printf "%-18s %-14s %10d %10d %7.2fs   (sleep sets %s)@." b.name test_name
            r.stats.explored r.stats.feasible r.stats.time
            (if sleep_sets then "on" else "off"))
        [ true; false ])
    cases

let ablation_history_sampling () =
  Format.printf "@.-- Ablation: exhaustive vs sampled sequential histories --@.";
  let b = Structures.Ms_queue.benchmark in
  let t = find_test b "2enq-2deq" in
  let buggy = snd (List.hd Structures.Ms_queue.known_bugs) in
  List.iter
    (fun (label, checker) ->
      let correct = explore_with ~checker b t ~ords:(Structures.Ords.default b.sites) in
      let bug = explore_with ~checker b t ~ords:buggy in
      Format.printf "%-28s correct: %.2fs, %d false reports; buggy: %s@." label
        correct.stats.time
        (List.length correct.bugs)
        (if bug.bugs <> [] then "detected" else "MISSED"))
    [
      ("exhaustive histories", Cdsspec.Checker.default_config);
      ( "sampled (5 per execution)",
        { Cdsspec.Checker.default_config with sample_histories = Some (5, 42) } );
      ( "sampled (1 per execution)",
        { Cdsspec.Checker.default_config with sample_histories = Some (1, 42) } );
    ]

let ablation_loop_bound () =
  Format.printf "@.-- Ablation: spin-loop bound sensitivity --@.";
  let b = Structures.Seqlock.benchmark in
  let t = find_test b "1write-1read" in
  let ords = Structures.Ords.default b.sites in
  List.iter
    (fun loop_bound ->
      let r = explore_with ~scheduler:{ b.scheduler with loop_bound } b t ~ords in
      Format.printf "loop bound %d: explored=%d feasible=%d time=%.2fs@." loop_bound
        r.stats.explored r.stats.feasible r.stats.time)
    [ 2; 3; 4; 6 ]

let run_ablation () =
  section "Ablations (DESIGN.md design choices)";
  ablation_sleep_sets ();
  ablation_history_sampling ();
  ablation_loop_bound ()

(* ------------------------------------------------------------------ *)
(* Timing: wall-clock per Figure-7 row (full exploration of the first
   unit test, the same workload the old Bechamel harness staged), under
   the requested number of domains, emitted both as a table and as the
   machine-readable BENCH_PR1.json perf-trajectory point. Later PRs add
   BENCH_PR<n>.json and diff executions/sec against this file.         *)

type timing_row = {
  bench : string;
  test : string;
  wall_s : float;
  explored : int;
  feasible : int;
  execs_per_sec : float;
}

let time_one (b : B.t) =
  let t = List.hd b.tests in
  let ords = Structures.Ords.default b.sites in
  let t0 = Unix.gettimeofday () in
  let r =
    Mc.Parallel.explore ~jobs:!jobs
      ~config:{ E.default_config with scheduler = b.scheduler }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program ords)
  in
  let wall = Unix.gettimeofday () -. t0 in
  {
    bench = b.name;
    test = t.test_name;
    wall_s = wall;
    explored = r.stats.explored;
    feasible = r.stats.feasible;
    execs_per_sec = (if wall > 0. then float_of_int r.stats.explored /. wall else 0.);
  }

let bench_json_file = "BENCH_PR1.json"

let write_bench_json rows =
  let total = List.fold_left (fun acc r -> acc +. r.wall_s) 0. rows in
  write_bench_file ~default:bench_json_file ~pr:1
    ~note:(Printf.sprintf " (jobs=%d)" !jobs)
    (fun oc ->
      Printf.fprintf oc "  \"jobs\": %d,\n  \"total_wall_s\": %.3f,\n  \"benchmarks\": [\n" !jobs
        total;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"name\": %S, \"test\": %S, \"wall_s\": %.4f, \"explored\": %d, \"feasible\": \
             %d, \"execs_per_sec\": %.1f}%s\n"
            r.bench r.test r.wall_s r.explored r.feasible r.execs_per_sec
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n")

let run_timing () =
  section
    (Printf.sprintf "Timing: full exploration of each first unit test (jobs=%d)" !jobs);
  Format.printf "%-24s %-16s %10s %10s %10s %14s@." "Benchmark" "Test" "wall (s)" "explored"
    "feasible" "execs/sec";
  let rows =
    List.map
      (fun b ->
        let r = time_one b in
        Format.printf "%-24s %-16s %10.3f %10d %10d %14.1f@." r.bench r.test r.wall_s r.explored
          r.feasible r.execs_per_sec;
        r)
      (fig7_benches @ extra_benches)
  in
  write_bench_json rows

(* ------------------------------------------------------------------ *)
(* Fuzz: randomized exploration vs the exhaustive baseline, emitted as
   BENCH_PR2.json. Two kinds of rows: seeded-buggy workloads measure
   time-to-first-bug (fuzz stops at the first finding; the exhaustive
   baseline's capped total time upper-bounds its own), and bug-free
   oversized workloads measure throughput and coverage.                *)

let fuzz_seed = 1

let fuzz_json_file = "BENCH_PR2.json"

type fuzz_buggy_row = {
  fbr_workload : string;
  fbr_ttfb : float option;  (* fuzz time-to-first-bug, seconds *)
  fbr_exec_index : int option;  (* which run found it *)
  fbr_fuzz_time : float;
  fbr_repro : string option;
  fbr_exh_time : float;
  fbr_exh_explored : int;
  fbr_exh_found : bool;
}

type fuzz_tp_row = {
  ftr_workload : string;
  ftr_execs : int;
  ftr_feasible : int;
  ftr_coverage : int;
  ftr_bugs : int;
  ftr_eps : float;  (* fuzz executions per second *)
  ftr_exh_eps : float;  (* exhaustive executions per second, same cap *)
}

let fuzz_config (b : B.t) ~max_execs ~stop_on_first_bug =
  {
    Fuzz.Engine.default_config with
    scheduler = { b.scheduler with Mc.Scheduler.sleep_sets = false };
    max_executions = Some max_execs;
    stop_on_first_bug;
  }

let exhaustive_capped (b : B.t) ~ords ~max_execs (t : B.test) =
  Mc.Parallel.explore ~jobs:!jobs
    ~config:{ E.default_config with scheduler = b.scheduler; max_executions = Some max_execs }
    ~on_feasible:(Cdsspec.Checker.hook b.spec)
    (t.program ords)

let fuzz_buggy_case (b : B.t) test_name ~ords ~max_execs =
  let t = find_test b test_name in
  let r =
    Fuzz.Engine.run
      ~config:(fuzz_config b ~max_execs ~stop_on_first_bug:true)
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~seed:fuzz_seed (t.program ords)
  in
  let ex = exhaustive_capped b ~ords ~max_execs t in
  {
    fbr_workload = b.name ^ "/" ^ test_name;
    fbr_ttfb = r.stats.time_to_first_bug;
    fbr_exec_index = (match r.found with f :: _ -> Some f.execution | [] -> None);
    fbr_fuzz_time = r.stats.time;
    fbr_repro =
      (match r.found with
      | f :: _ ->
        Some (Printf.sprintf "--fuzz --seed %d / --replay %s" fuzz_seed
                (Fuzz.Engine.trace_to_string f.minimized))
      | [] -> None);
    fbr_exh_time = ex.stats.time;
    fbr_exh_explored = ex.stats.explored;
    fbr_exh_found = ex.bugs <> [];
  }

let fuzz_throughput_case (b : B.t) ~max_execs =
  let t = List.hd b.tests in
  let ords = Structures.Ords.default b.sites in
  let r =
    Fuzz.Engine.run
      ~config:(fuzz_config b ~max_execs ~stop_on_first_bug:false)
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      ~seed:fuzz_seed (t.program ords)
  in
  let ex = exhaustive_capped b ~ords ~max_execs t in
  {
    ftr_workload = b.name ^ "/" ^ t.test_name;
    ftr_execs = r.stats.executions;
    ftr_feasible = r.stats.feasible;
    ftr_coverage = r.stats.coverage;
    ftr_bugs = List.length r.found;
    ftr_eps = (if r.stats.time > 0. then float_of_int r.stats.executions /. r.stats.time else 0.);
    ftr_exh_eps =
      (if ex.stats.time > 0. then float_of_int ex.stats.explored /. ex.stats.time else 0.);
  }

let write_fuzz_json buggy throughput =
  let opt_f = function None -> "null" | Some v -> Printf.sprintf "%.4f" v in
  let opt_i = function None -> "null" | Some v -> string_of_int v in
  write_bench_file ~default:fuzz_json_file ~pr:2
    ~note:(Printf.sprintf " (jobs=%d)" !jobs)
    (fun oc ->
      Printf.fprintf oc "  \"jobs\": %d,\n  \"seed\": %d,\n  \"bias\": %S,\n" !jobs fuzz_seed
        (Fuzz.Bias.to_string Fuzz.Engine.default_config.bias);
      Printf.fprintf oc "  \"time_to_first_bug\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"fuzz_ttfb_s\": %s, \"fuzz_exec_index\": %s, \
             \"fuzz_wall_s\": %.4f, \"exhaustive_wall_s\": %.4f, \"exhaustive_explored\": %d, \
             \"exhaustive_found\": %b}%s\n"
            r.fbr_workload (opt_f r.fbr_ttfb) (opt_i r.fbr_exec_index) r.fbr_fuzz_time
            r.fbr_exh_time r.fbr_exh_explored r.fbr_exh_found
            (if i = List.length buggy - 1 then "" else ","))
        buggy;
      Printf.fprintf oc "  ],\n  \"throughput\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"execs\": %d, \"feasible\": %d, \"coverage\": %d, \"bugs\": \
             %d, \"execs_per_sec\": %.1f, \"exhaustive_execs_per_sec\": %.1f}%s\n"
            r.ftr_workload r.ftr_execs r.ftr_feasible r.ftr_coverage r.ftr_bugs r.ftr_eps
            r.ftr_exh_eps
            (if i = List.length throughput - 1 then "" else ","))
        throughput;
      Printf.fprintf oc "  ]\n")

let run_fuzz () =
  section (Printf.sprintf "Fuzz: randomized vs exhaustive exploration (seed=%d)" fuzz_seed);
  Format.printf "%-34s %10s %9s %12s %11s %9s@." "Seeded-buggy workload" "fuzz ttfb" "at exec"
    "fuzz wall" "exh wall" "exh found";
  let ms = Structures.Ms_queue.benchmark in
  let buggy_ords = Structures.Ms_queue.known_buggy_ords in
  let buggy =
    List.map
      (fun row ->
        let r = row () in
        Format.printf "%-34s %10s %9s %11.3fs %10.3fs %9b@." r.fbr_workload
          (match r.fbr_ttfb with None -> "-" | Some t -> Printf.sprintf "%.3fs" t)
          (match r.fbr_exec_index with None -> "-" | Some i -> string_of_int i)
          r.fbr_fuzz_time r.fbr_exh_time r.fbr_exh_found;
        (match r.fbr_repro with
        | Some repro -> Format.printf "    repro: %s@." repro
        | None -> ());
        r)
      [
        (fun () -> fuzz_buggy_case ms "1enq-1deq" ~ords:buggy_ords ~max_execs:50_000);
        (fun () -> fuzz_buggy_case ms "2enq-2deq" ~ords:buggy_ords ~max_execs:50_000);
        (fun () ->
          fuzz_buggy_case Structures.Oversized.ms_queue "2x4enq-2x4deq" ~ords:buggy_ords
            ~max_execs:5_000);
      ]
  in
  Format.printf "@.%-34s %8s %9s %9s %6s %10s %12s@." "Bug-free oversized workload" "execs"
    "feasible" "coverage" "bugs" "execs/s" "exh execs/s";
  let throughput =
    List.map
      (fun b ->
        let r = fuzz_throughput_case b ~max_execs:1_000 in
        Format.printf "%-34s %8d %9d %9d %6d %10.0f %12.0f@." r.ftr_workload r.ftr_execs
          r.ftr_feasible r.ftr_coverage r.ftr_bugs r.ftr_eps r.ftr_exh_eps;
        r)
      (X.fuzz_workloads ())
  in
  write_fuzz_json buggy throughput

(* ------------------------------------------------------------------ *)
(* Lint: the PR-3 static-analysis layer. Run the fact collection, the
   lint rules and the full weakening advisor over a spread of registry
   structures, and emit BENCH_PR3.json: advisor wall time and verdict
   counts per structure. Per-candidate re-explorations reuse
   Mc.Parallel via the jobs knob.                                      *)

let lint_json_file = "BENCH_PR3.json"
let lint_max_execs = 10_000

type lint_row = {
  lr_bench : string;
  lr_findings : int;
  lr_baseline_wall_s : float;
  lr_advisor_wall_s : float;
  lr_candidates : int;
  lr_safe : int;
  lr_changing : int;
  lr_violating : int;
  lr_agree : int;  (* first-rung verdicts matching the lint prediction *)
  lr_disagree : int;
}

let lint_benches =
  List.filter_map Structures.Registry.find
    [
      "SPSC Queue";
      "RCU";
      "Ticket Lock";
      "Atomic Register";
      "Contention-Free Lock";
      "Treiber Stack";
      "Lamport Ring";
      "CLH Lock";
      "Lazy Init";
      "Seqlock";
    ]

let lint_one (b : B.t) =
  let cfg =
    {
      Analyze.Access_summary.default_config with
      max_executions = Some lint_max_execs;
      jobs = !jobs;
    }
  in
  let summary = Analyze.Access_summary.collect ~config:cfg b in
  let findings = Analyze.Lint.lint summary in
  let wcfg =
    { Analyze.Weaken.default_config with max_executions = Some lint_max_execs; jobs = !jobs }
  in
  let advice = Analyze.Weaken.advise ~config:wcfg ~findings b ~summary in
  let count p = List.length (List.filter p advice.candidates) in
  {
    lr_bench = b.name;
    lr_findings = List.length findings;
    lr_baseline_wall_s = summary.time;
    lr_advisor_wall_s = advice.time;
    lr_candidates = List.length advice.candidates;
    lr_safe =
      count (fun (c : Analyze.Weaken.candidate) -> c.verdict = Analyze.Weaken.Safe_to_weaken);
    lr_changing =
      count (fun (c : Analyze.Weaken.candidate) ->
          match c.verdict with Analyze.Weaken.Behaviour_changing _ -> true | _ -> false);
    lr_violating =
      count (fun (c : Analyze.Weaken.candidate) ->
          match c.verdict with Analyze.Weaken.Spec_violating _ -> true | _ -> false);
    lr_agree =
      count (fun (c : Analyze.Weaken.candidate) -> c.agrees_with_lint = Some true);
    lr_disagree =
      count (fun (c : Analyze.Weaken.candidate) -> c.agrees_with_lint = Some false);
  }

let write_lint_json rows =
  let total = List.fold_left (fun acc r -> acc +. r.lr_advisor_wall_s) 0. rows in
  write_bench_file ~default:lint_json_file ~pr:3
    ~note:(Printf.sprintf " (jobs=%d)" !jobs)
    (fun oc ->
      Printf.fprintf oc
        "  \"jobs\": %d,\n  \"max_executions\": %d,\n  \"total_advisor_wall_s\": %.3f,\n  \
         \"structures\": [\n"
        !jobs lint_max_execs total;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"name\": %S, \"lint_findings\": %d, \"baseline_wall_s\": %.4f, \
             \"advisor_wall_s\": %.4f, \"candidates\": %d, \"safe_to_weaken\": %d, \
             \"behaviour_changing\": %d, \"spec_violating\": %d, \"lint_agreements\": %d, \
             \"lint_disagreements\": %d}%s\n"
            r.lr_bench r.lr_findings r.lr_baseline_wall_s r.lr_advisor_wall_s r.lr_candidates
            r.lr_safe r.lr_changing r.lr_violating r.lr_agree r.lr_disagree
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n")

let run_lint () =
  section
    (Printf.sprintf "Lint + weakening advisor (max %d execs per test, jobs=%d)" lint_max_execs
       !jobs);
  Format.printf "%-22s %8s %10s %10s %11s %5s %9s %10s %6s@." "Benchmark" "findings" "base (s)"
    "advise (s)" "candidates" "safe" "changing" "violating" "agree";
  let rows =
    List.map
      (fun b ->
        let r = lint_one b in
        Format.printf "%-22s %8d %10.3f %10.3f %11d %5d %9d %10d %3d/%d@." r.lr_bench
          r.lr_findings r.lr_baseline_wall_s r.lr_advisor_wall_s r.lr_candidates r.lr_safe
          r.lr_changing r.lr_violating r.lr_agree (r.lr_agree + r.lr_disagree);
        r)
      lint_benches
  in
  write_lint_json rows

(* ------------------------------------------------------------------ *)
(* Shared by the emitters below: [--smoke] runs a CI-sized subset, and
   [median] summarizes their per-row speedups.                          *)

let smoke = ref false

let median l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Explore: the PR-5 exploration-throughput benchmark. Two sections in
   BENCH_PR5.json:

   - pruning: every Registry.exhaustive structure explored twice (first
     unit test, serial) — equivalence pruning off then on — recording
     interleavings vs distinct graphs, wall time and execs/sec. For rows
     where both runs exhaust the tree (no cap hit), the distinct-graph
     sets and bug lists must be identical; any divergence is a hard
     failure, so the `--smoke` run doubles as CI's pruning-soundness
     gate.
   - scaling: skewed workloads explored at several job counts under the
     static prefix split vs the work-stealing pool, recording wall
     times. Skewed trees are where a static split leaves domains idle
     behind one fat subtree. Pruning is off here: the big unpruned
     trees are what parallel exploration exists for (pruned trees are
     small enough to run serially, and per-item visited tables would
     charge the pruned run for lost sharing rather than measuring the
     split strategy).                                                  *)

let explore_json_file = "BENCH_PR5.json"

type pe_row = {
  pe_workload : string;
  pe_off_explored : int;
  pe_off_wall_s : float;
  pe_on_explored : int;
  pe_on_equiv_pruned : int;
  pe_on_wall_s : float;
  pe_graphs : int;
  pe_reduction : float;  (* unpruned interleavings / pruned runs *)
  pe_speedup : float;  (* unpruned wall / pruned wall *)
  pe_gated : bool;  (* both runs exhausted: equivalence gate applied *)
}

type sc_row = {
  sc_workload : string;
  sc_jobs : int;
  sc_serial_wall_s : float;
  sc_static_wall_s : float;
  sc_steal_wall_s : float;
}

let pe_explore ~prune ~strategy ~jobs:j ~max_execs (b : B.t) (t : B.test) =
  let ords = Structures.Ords.default b.sites in
  let t0 = Unix.gettimeofday () in
  let r =
    Mc.Parallel.explore ~jobs:j ~strategy
      ~config:
        { E.default_config with scheduler = b.scheduler; max_executions = max_execs; prune }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program ords)
  in
  (Unix.gettimeofday () -. t0, r)

let pruning_one ~max_execs (b : B.t) =
  let t = List.hd b.tests in
  let wall_off, off = pe_explore ~prune:false ~strategy:`Steal ~jobs:1 ~max_execs b t in
  let wall_on, on = pe_explore ~prune:true ~strategy:`Steal ~jobs:1 ~max_execs b t in
  let gated = (not off.stats.truncated) && not on.stats.truncated in
  if gated then begin
    if off.graphs <> on.graphs then
      failwith ("explore-bench: distinct-graph sets diverge with pruning on " ^ b.name);
    if List.map Mc.Bug.key off.bugs <> List.map Mc.Bug.key on.bugs then
      failwith ("explore-bench: bug lists diverge with pruning on " ^ b.name)
  end
  else
    (* no silent caps: a truncated pair contributes numbers but not the
       equivalence gate, and says so *)
    Format.printf "  note: %s truncated at the execution cap; equivalence gate skipped@." b.name;
  {
    pe_workload = b.name ^ "/" ^ t.test_name;
    pe_off_explored = off.stats.explored;
    pe_off_wall_s = wall_off;
    pe_on_explored = on.stats.explored;
    pe_on_equiv_pruned = on.stats.pruned_equiv;
    pe_on_wall_s = wall_on;
    pe_graphs = on.stats.distinct_graphs;
    pe_reduction =
      (if on.stats.explored > 0 then
         float_of_int off.stats.explored /. float_of_int on.stats.explored
       else 1.);
    pe_speedup = (if wall_on > 0. then wall_off /. wall_on else 1.);
    pe_gated = gated;
  }

let scaling_one ~max_execs ~jobs_list (b : B.t) test_name =
  let t = find_test b test_name in
  let serial_wall, _ = pe_explore ~prune:false ~strategy:`Steal ~jobs:1 ~max_execs b t in
  List.map
    (fun j ->
      let static_wall, _ = pe_explore ~prune:false ~strategy:`Static ~jobs:j ~max_execs b t in
      let steal_wall, _ = pe_explore ~prune:false ~strategy:`Steal ~jobs:j ~max_execs b t in
      {
        sc_workload = b.name ^ "/" ^ test_name;
        sc_jobs = j;
        sc_serial_wall_s = serial_wall;
        sc_static_wall_s = static_wall;
        sc_steal_wall_s = steal_wall;
      })
    jobs_list

let write_explore_json ~skipped_single_core pruning scaling =
  write_bench_file ~default:explore_json_file ~pr:5
    ~note:(if !smoke then " (smoke)" else "")
    (fun oc ->
      Printf.fprintf oc
        "  \"smoke\": %b,\n  \"skipped_single_core\": %b,\n  \
         \"median_interleaving_reduction\": %.2f,\n  \"median_speedup\": %.2f,\n  \"pruning\": [\n"
        !smoke skipped_single_core
        (median (List.map (fun r -> r.pe_reduction) pruning))
        (median (List.map (fun r -> r.pe_speedup) pruning));
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"unpruned_explored\": %d, \"unpruned_wall_s\": %.4f, \
             \"pruned_explored\": %d, \"equiv_pruned\": %d, \"pruned_wall_s\": %.4f, \
             \"distinct_graphs\": %d, \"interleaving_reduction\": %.2f, \"speedup\": %.2f, \
             \"exhausted\": %b}%s\n"
            r.pe_workload r.pe_off_explored r.pe_off_wall_s r.pe_on_explored r.pe_on_equiv_pruned
            r.pe_on_wall_s r.pe_graphs r.pe_reduction r.pe_speedup r.pe_gated
            (if i = List.length pruning - 1 then "" else ","))
        pruning;
      Printf.fprintf oc "  ],\n  \"scaling\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"jobs\": %d, \"serial_wall_s\": %.4f, \"static_wall_s\": \
             %.4f, \"steal_wall_s\": %.4f, \"static_speedup\": %.2f, \"steal_speedup\": %.2f}%s\n"
            r.sc_workload r.sc_jobs r.sc_serial_wall_s r.sc_static_wall_s r.sc_steal_wall_s
            (if r.sc_static_wall_s > 0. then r.sc_serial_wall_s /. r.sc_static_wall_s else 1.)
            (if r.sc_steal_wall_s > 0. then r.sc_serial_wall_s /. r.sc_steal_wall_s else 1.)
            (if i = List.length scaling - 1 then "" else ","))
        scaling;
      Printf.fprintf oc "  ]\n")

let run_explore () =
  section
    (Printf.sprintf "Explore: equivalence pruning + work stealing%s"
       (if !smoke then " (smoke subset)" else ""));
  let max_execs = if !smoke then Some 20_000 else Some 400_000 in
  Format.printf "%-34s %10s %10s %8s %9s %9s %8s@." "Workload" "unpruned" "pruned" "graphs"
    "reduce" "speedup" "gate";
  let pruning =
    List.map
      (fun b ->
        let r = pruning_one ~max_execs b in
        Format.printf "%-34s %10d %10d %8d %8.2fx %8.2fx %8s@." r.pe_workload r.pe_off_explored
          r.pe_on_explored r.pe_graphs r.pe_reduction r.pe_speedup
          (if r.pe_gated then "checked" else "skipped");
        r)
      Structures.Registry.exhaustive
  in
  if not (List.exists (fun r -> r.pe_gated) pruning) then
    failwith "explore-bench: every pruning pair truncated; the equivalence gate never ran";
  (* the spin-heavy trees are the skewed ones: one contention branch
     carries most of the interleavings, so a static prefix split leaves
     domains idle behind it while the stealing pool rebalances *)
  let scaling_cases =
    if !smoke then [ (Structures.Mcs_lock.benchmark, "two-threads", [ 2 ]) ]
    else
      [
        (Structures.Mcs_lock.benchmark, "two-threads", [ 2; 4 ]);
        (Structures.Chase_lev_deque.benchmark, "small", [ 2; 4 ]);
        (Structures.Seqlock.benchmark, "1write-1read", [ 2; 4 ]);
      ]
  in
  (* no silent misreadings: on a single-core host the parallel rows
     timeshare one CPU, so wall times would measure strategy overhead,
     not parallel speedup — skip them and say so in the JSON rather than
     emit numbers that read as a regression *)
  let skipped_single_core = Domain.recommended_domain_count () < 2 in
  let scaling =
    if skipped_single_core then begin
      Format.printf
        "@.note: single-core host — scaling rows skipped (domains would timeshare one CPU;@.      \
         speedups > 1x are unreachable, so the numbers would only mislead)@.";
      []
    end
    else begin
      Format.printf "@.%-34s %5s %10s %10s %10s@." "Scaling workload" "jobs" "serial" "static"
        "steal";
      List.concat_map
        (fun (b, test_name, jobs_list) ->
          let rows = scaling_one ~max_execs ~jobs_list b test_name in
          List.iter
            (fun r ->
              Format.printf "%-34s %5d %9.3fs %9.3fs %9.3fs@." r.sc_workload r.sc_jobs
                r.sc_serial_wall_s r.sc_static_wall_s r.sc_steal_wall_s)
            rows;
          rows)
        scaling_cases
    end
  in
  write_explore_json ~skipped_single_core pruning scaling

(* ------------------------------------------------------------------ *)
(* Replay: the PR-6 arena-engine benchmark. Every exhaustive registry
   structure (first unit test, serial, pruning off — the regime where
   the engine's per-execution cost dominates) is explored under both
   engines. The arena run must be observably identical to the legacy
   run — stats, distinct-graph set, bug list, first buggy trace — and
   any divergence is a hard failure, so the `--smoke` run doubles as
   CI's engine-soundness gate. Timings are best-of-N (the engines are
   deterministic; the host is not), emitted as BENCH_PR6.json together
   with snapshot/restore counts, allocation per execution, and the
   speedup against the two PR-5 trajectory rows.                       *)

let replay_json_file = "BENCH_PR6.json"
let replay_reps = 3

(* The PR-5 baseline this PR's target is defined against: unpruned
   serial wall times of the committed BENCH_PR5.json pruning rows. *)
let pr5_baseline_eps =
  [ ("MCS Lock/two-threads", 41624. /. 1.9868); ("Chase-Lev Deque/small", 7530. /. 0.3747) ]

type rp_row = {
  rp_workload : string;
  rp_explored : int;
  rp_arena_wall_s : float;
  rp_legacy_wall_s : float;
  rp_snapshots : int;
  rp_restores : int;
  rp_arena_words_per_exec : float;
  rp_legacy_words_per_exec : float;
}

let rp_eps explored wall = if wall > 0. then float_of_int explored /. wall else 0.

let replay_one ~max_execs (b : B.t) =
  let t = List.hd b.tests in
  let ords = Structures.Ords.default b.sites in
  let run engine =
    let t0 = Unix.gettimeofday () in
    let r =
      E.explore
        ~config:
          {
            E.default_config with
            scheduler = b.scheduler;
            max_executions = max_execs;
            prune = false;
            engine;
          }
        ~on_feasible:(Cdsspec.Checker.hook b.spec)
        (t.program ords)
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let best engine =
    let runs = List.init replay_reps (fun _ -> run engine) in
    let wall = List.fold_left (fun acc (w, _) -> Float.min acc w) Float.infinity runs in
    (wall, snd (List.hd runs))
  in
  let arena_wall, a = best `Arena in
  let legacy_wall, l = best `Legacy in
  let key (r : E.result) =
    let s = r.stats in
    ( ( s.explored,
        s.feasible,
        s.pruned_loop_bound,
        s.pruned_max_actions,
        s.pruned_sleep_set,
        s.pruned_equiv ),
      (s.distinct_graphs, s.buggy, s.truncated),
      r.graphs,
      List.map Mc.Bug.key r.bugs,
      r.first_buggy_trace )
  in
  if key a <> key l then
    failwith ("replay-bench: arena and legacy engines diverge on " ^ b.name ^ "/" ^ t.test_name);
  let per_exec w (r : E.result) = if r.stats.explored > 0 then w /. float_of_int r.stats.explored else 0. in
  {
    rp_workload = b.name ^ "/" ^ t.test_name;
    rp_explored = a.stats.explored;
    rp_arena_wall_s = arena_wall;
    rp_legacy_wall_s = legacy_wall;
    rp_snapshots = a.stats.snapshots;
    rp_restores = a.stats.restores;
    rp_arena_words_per_exec = per_exec a.stats.minor_words a;
    rp_legacy_words_per_exec = per_exec l.stats.minor_words l;
  }

let write_replay_json rows =
  let speedup r = rp_eps r.rp_explored r.rp_arena_wall_s /. Float.max 1e-9 (rp_eps r.rp_explored r.rp_legacy_wall_s) in
  write_bench_file ~default:replay_json_file ~pr:6
    ~note:(if !smoke then " (smoke)" else "")
    (fun oc ->
      Printf.fprintf oc
        "  \"smoke\": %b,\n  \"best_of\": %d,\n  \"divergences\": 0,\n  \
         \"median_speedup_vs_legacy\": %.2f,\n  \"pr5_trajectory\": [\n"
        !smoke replay_reps
        (median (List.map speedup rows));
      let traj =
        List.filter_map
          (fun (workload, base_eps) ->
            List.find_opt (fun r -> r.rp_workload = workload) rows
            |> Option.map (fun r -> (workload, base_eps, r)))
          pr5_baseline_eps
      in
      List.iteri
        (fun i (workload, base_eps, r) ->
          let eps = rp_eps r.rp_explored r.rp_arena_wall_s in
          Printf.fprintf oc
            "    {\"workload\": %S, \"pr5_execs_per_sec\": %.1f, \"arena_execs_per_sec\": %.1f, \
             \"speedup_vs_pr5\": %.2f}%s\n"
            workload base_eps eps
            (eps /. base_eps)
            (if i = List.length traj - 1 then "" else ","))
        traj;
      Printf.fprintf oc "  ],\n  \"engine\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"explored\": %d, \"arena_wall_s\": %.4f, \"legacy_wall_s\": \
             %.4f, \"arena_execs_per_sec\": %.1f, \"legacy_execs_per_sec\": %.1f, \"speedup\": \
             %.2f, \"snapshots\": %d, \"restores\": %d, \"arena_minor_words_per_exec\": %.0f, \
             \"legacy_minor_words_per_exec\": %.0f, \"identical\": true}%s\n"
            r.rp_workload r.rp_explored r.rp_arena_wall_s r.rp_legacy_wall_s
            (rp_eps r.rp_explored r.rp_arena_wall_s)
            (rp_eps r.rp_explored r.rp_legacy_wall_s)
            (speedup r) r.rp_snapshots r.rp_restores r.rp_arena_words_per_exec
            r.rp_legacy_words_per_exec
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n")

let run_replay () =
  section
    (Printf.sprintf "Replay: arena engine vs legacy re-execution%s"
       (if !smoke then " (smoke subset)" else ""));
  let max_execs = if !smoke then Some 10_000 else Some 400_000 in
  Format.printf "%-34s %9s %10s %10s %9s %11s %11s@." "Workload" "explored" "arena/s" "legacy/s"
    "speedup" "words/exec" "(legacy)";
  let rows =
    List.map
      (fun b ->
        let r = replay_one ~max_execs b in
        Format.printf "%-34s %9d %10.0f %10.0f %8.2fx %11.0f %11.0f@." r.rp_workload
          r.rp_explored
          (rp_eps r.rp_explored r.rp_arena_wall_s)
          (rp_eps r.rp_explored r.rp_legacy_wall_s)
          (rp_eps r.rp_explored r.rp_arena_wall_s
          /. Float.max 1e-9 (rp_eps r.rp_explored r.rp_legacy_wall_s))
          r.rp_arena_words_per_exec r.rp_legacy_words_per_exec;
        r)
      Structures.Registry.exhaustive
  in
  write_replay_json rows

(* ------------------------------------------------------------------ *)
(* Serve: the PR-7 checking-as-a-service + persistent-store benchmark.
   Three sections in BENCH_PR7.json:

   - "store": cold-vs-warm job latency through Store.explore_checked on
     history-heavy and spin-heavy workloads. The cold run explores and
     saves; the warm run preloads the closed prune keys and collapses to
     a re-validation. Cold and warm verdicts (graph set, bug keys, first
     buggy trace) are compared row by row and any divergence is a hard
     failure, so the `--smoke` run doubles as CI's store-soundness gate.
   - "advisor": the weakening advisor's behaviour sweeps recalled from
     the store instead of re-explored.
   - "serve": an in-process daemon on a scratch socket, two concurrent
     clients driving the same 3-job batch twice against one store —
     jobs/sec cold vs warm plus the protocol-visible hit rates.        *)

let serve_json_file = "BENCH_PR7.json"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type sv_row = {
  sv_workload : string;
  sv_kind : string;  (* "history-heavy" | "spin-heavy" *)
  sv_cold_wall_s : float;
  sv_warm_wall_s : float;
  sv_cold_explored : int;
  sv_warm_explored : int;
  sv_graphs : int;
  sv_warm_hit : bool;
  sv_identical : bool;
}

let sv_speedup r = r.sv_cold_wall_s /. Float.max 1e-9 r.sv_warm_wall_s

let store_cold_warm ~dir ~max_execs ~kind (b : B.t) test_name =
  let t = find_test b test_name in
  let ords = Structures.Ords.default b.sites in
  let run () =
    (* reopen per run: a warm run must pay the real open-and-load cost *)
    let store = Store.open_dir dir in
    let t0 = Unix.gettimeofday () in
    let r, d =
      Store.explore_checked ~store ~checker:Cdsspec.Checker.default_config ~use_cache:true
        ~max_execs ~jobs:1 ~prune:true ~engine:`Arena b ~ords t
    in
    (Unix.gettimeofday () -. t0, r, d)
  in
  let cold_wall, cold, _ = run () in
  let warm_wall, warm, warm_d = run () in
  {
    sv_workload = b.name ^ "/" ^ t.B.test_name;
    sv_kind = kind;
    sv_cold_wall_s = cold_wall;
    sv_warm_wall_s = warm_wall;
    sv_cold_explored = cold.E.stats.explored;
    sv_warm_explored = warm.E.stats.explored;
    sv_graphs = warm.E.stats.distinct_graphs;
    sv_warm_hit = warm_d = `Hit;
    sv_identical =
      cold.E.graphs = warm.E.graphs
      && List.map Mc.Bug.key cold.E.bugs = List.map Mc.Bug.key warm.E.bugs
      && cold.E.first_buggy_trace = warm.E.first_buggy_trace;
  }

let serve_store_cases () =
  let case name test kind =
    match Structures.Registry.find name with
    | Some b -> Some (b, test, kind)
    | None ->
      Format.printf "serve-bench: no benchmark %S, skipping@." name;
      None
  in
  List.filter_map Fun.id
    (if !smoke then
       [ case "M&S Queue" "2enq-2deq" "history-heavy"; case "MCS Lock" "two-threads" "spin-heavy" ]
     else
       [
         case "M&S Queue" "2enq-2deq" "history-heavy";
         case "Treiber Stack" "2push-2pop" "history-heavy";
         case "MCS Lock" "two-threads" "spin-heavy";
         case "Seqlock" "1write-1read" "spin-heavy";
       ])

type sv_adv = {
  sva_bench : string;
  sva_cold_wall_s : float;
  sva_warm_wall_s : float;
  sva_store_hits : int;
  sva_identical : bool;
}

let advisor_cold_warm ~dir (b : B.t) ~max_execs =
  let summary =
    Analyze.Access_summary.collect
      ~config:{ Analyze.Access_summary.default_config with max_executions = max_execs }
      b
  in
  let strip (r : Analyze.Weaken.report) =
    List.map
      (fun (c : Analyze.Weaken.candidate) ->
        (c.site, c.to_order, Analyze.Weaken.verdict_to_string c.verdict))
      r.candidates
  in
  let run () =
    let store = Store.open_dir dir in
    let config =
      { Analyze.Weaken.default_config with max_executions = max_execs; store = Some store }
    in
    let t0 = Unix.gettimeofday () in
    let r = Analyze.Weaken.advise ~config b ~summary in
    (Unix.gettimeofday () -. t0, r, store)
  in
  let cold_wall, cold, _ = run () in
  let warm_wall, warm, warm_store = run () in
  {
    sva_bench = b.name;
    sva_cold_wall_s = cold_wall;
    sva_warm_wall_s = warm_wall;
    sva_store_hits = (Store.stats warm_store).hits;
    sva_identical = strip cold = strip warm;
  }

(* One 3-job batch over two concurrent client connections; returns the
   wall time, the per-job verdict summaries (sorted, so batch-to-batch
   comparison ignores completion order) and the hit/miss tallies the
   result events report. *)
let serve_batch ~socket ~max_execs cases =
  let module C = Serve.Client in
  let module J = Analyze.Json in
  let ev j = Option.bind (J.member "event" j) J.to_str in
  (* fire every submit up front, then drain each connection until one
     terminal (done/error) event per submitted job has arrived — two
     jobs share a connection, so a result line of the first may land
     before the accept of the second; ordering is per job, not global *)
  let drain c n =
    let results = ref [] in
    let seen = ref 0 in
    while !seen < n do
      match C.recv ~timeout:300. c with
      | C.Msg j -> (
        match ev j with
        | Some "result" ->
          results :=
            ( Option.bind (J.member "test" j) J.to_str,
              (match J.member "bugs" j with
              | Some (J.List bs) ->
                List.filter_map (fun b -> Option.bind (J.member "key" b) J.to_str) bs
              | _ -> []),
              Option.bind (J.member "store" j) J.to_str )
            :: !results
        | Some ("done" | "error") -> incr seen
        | _ -> ())
      | _ -> failwith "serve-bench: connection dropped mid-batch"
    done;
    List.rev !results
  in
  let c0 = C.connect socket and c1 = C.connect socket in
  Fun.protect
    ~finally:(fun () ->
      C.close c0;
      C.close c1)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let counts = [| 0; 0 |] in
      List.iteri
        (fun i (b, test, _) ->
          let c = if i mod 2 = 0 then c0 else c1 in
          counts.(i mod 2) <- counts.(i mod 2) + 1;
          C.send c
            (J.Obj
               [
                 ("op", J.Str "check");
                 ("bench", J.Str (b : B.t).name);
                 ("test", J.Str test);
                 ("max_executions", J.Int max_execs);
               ]))
        cases;
      let results = drain c0 counts.(0) @ drain c1 counts.(1) in
      let wall = Unix.gettimeofday () -. t0 in
      let hits = List.length (List.filter (fun (_, _, d) -> d = Some "hit") results) in
      let misses = List.length (List.filter (fun (_, _, d) -> d = Some "miss") results) in
      let verdicts = List.sort compare (List.map (fun (t, bugs, _) -> (t, bugs)) results) in
      (wall, verdicts, hits, misses))

let run_serve () =
  section
    (Printf.sprintf "Serve: persistent store + checking-as-a-service%s"
       (if !smoke then " (smoke subset)" else ""));
  let max_execs = if !smoke then 20_000 else 400_000 in
  let store_dir = "_bench_pr7_store" in
  let serve_dir = "_bench_pr7_serve_store" in
  rm_rf store_dir;
  rm_rf serve_dir;
  let divergences = ref [] in
  (* store rows *)
  Format.printf "%-34s %-14s %10s %10s %9s %10s %10s %6s@." "Workload" "kind" "cold (s)"
    "warm (s)" "speedup" "cold runs" "warm runs" "store";
  let rows =
    List.map
      (fun (b, test, kind) ->
        let r = store_cold_warm ~dir:store_dir ~max_execs:(Some max_execs) ~kind b test in
        Format.printf "%-34s %-14s %10.3f %10.3f %8.2fx %10d %10d %6s@." r.sv_workload r.sv_kind
          r.sv_cold_wall_s r.sv_warm_wall_s (sv_speedup r) r.sv_cold_explored r.sv_warm_explored
          (if r.sv_warm_hit then "hit" else "miss");
        if not r.sv_identical then divergences := r.sv_workload :: !divergences;
        r)
      (serve_store_cases ())
  in
  if not (List.exists (fun r -> r.sv_warm_hit) rows) then
    failwith "serve-bench: no store row produced a warm hit; the warm path never ran";
  (* advisor row *)
  let adv =
    match Structures.Registry.find "Treiber Stack" with
    | None -> None
    | Some b ->
      let a =
        advisor_cold_warm ~dir:store_dir b
          ~max_execs:(Some (if !smoke then 5_000 else 50_000))
      in
      Format.printf "@.advisor %-26s %10.3f %10.3f %8.2fx %10s hits=%d@." a.sva_bench
        a.sva_cold_wall_s a.sva_warm_wall_s
        (a.sva_cold_wall_s /. Float.max 1e-9 a.sva_warm_wall_s)
        "" a.sva_store_hits;
      if not a.sva_identical then divergences := ("advisor " ^ a.sva_bench) :: !divergences;
      Some a
  in
  (* serve throughput: daemon + 2 clients, same 3-job batch twice *)
  let serve_cases =
    List.filteri (fun i _ -> i < 3) (serve_store_cases () @ serve_store_cases ())
  in
  let socket = "_bench_pr7.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let daemon =
    Domain.spawn (fun () -> Serve.Server.serve ~socket ~jobs:2 ~store_dir:serve_dir ())
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let serve_max = if !smoke then 10_000 else 100_000 in
  let cold_wall, cold_verdicts, cold_hits, cold_misses =
    serve_batch ~socket ~max_execs:serve_max serve_cases
  in
  let warm_wall, warm_verdicts, warm_hits, warm_misses =
    serve_batch ~socket ~max_execs:serve_max serve_cases
  in
  (let module C = Serve.Client in
   let module J = Analyze.Json in
   let c = C.connect socket in
   C.send c (J.Obj [ ("op", J.Str "shutdown") ]);
   ignore (C.recv ~timeout:30. c);
   C.close c);
  Domain.join daemon;
  if cold_verdicts <> warm_verdicts then divergences := "serve batch" :: !divergences;
  let batch = List.length serve_cases in
  let jps wall = float_of_int batch /. Float.max 1e-9 wall in
  Format.printf
    "@.serve batch (%d jobs, 2 clients, 2 workers): cold %.3fs (%.2f jobs/s, %d/%d hits), warm \
     %.3fs (%.2f jobs/s, %d/%d hits)@."
    batch cold_wall (jps cold_wall) cold_hits (cold_hits + cold_misses) warm_wall (jps warm_wall)
    warm_hits (warm_hits + warm_misses);
  (* the gate: cold and warm must be indistinguishable to a client *)
  (match !divergences with
  | [] -> ()
  | l ->
    List.iter (Format.printf "DIVERGENCE: cold and warm verdicts differ on %s@.") l;
    failwith "serve-bench: cold/warm verdict divergence — the store changed a verdict");
  write_bench_file ~default:serve_json_file ~pr:7
    ~note:(if !smoke then " (smoke)" else "")
    (fun oc ->
      Printf.fprintf oc
        "  \"smoke\": %b,\n  \"divergences\": 0,\n  \"median_warm_speedup\": %.2f,\n  \
         \"store\": [\n"
        !smoke
        (median (List.map sv_speedup (List.filter (fun r -> r.sv_warm_hit) rows)));
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"workload\": %S, \"kind\": %S, \"cold_wall_s\": %.4f, \"warm_wall_s\": %.4f, \
             \"speedup\": %.2f, \"cold_explored\": %d, \"warm_explored\": %d, \
             \"distinct_graphs\": %d, \"warm_hit\": %b, \"identical\": true}%s\n"
            r.sv_workload r.sv_kind r.sv_cold_wall_s r.sv_warm_wall_s (sv_speedup r)
            r.sv_cold_explored r.sv_warm_explored r.sv_graphs r.sv_warm_hit
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n";
      (match adv with
      | None -> Printf.fprintf oc "  \"advisor\": null,\n"
      | Some a ->
        Printf.fprintf oc
          "  \"advisor\": {\"bench\": %S, \"cold_wall_s\": %.4f, \"warm_wall_s\": %.4f, \
           \"speedup\": %.2f, \"store_hits\": %d, \"identical\": true},\n"
          a.sva_bench a.sva_cold_wall_s a.sva_warm_wall_s
          (a.sva_cold_wall_s /. Float.max 1e-9 a.sva_warm_wall_s)
          a.sva_store_hits);
      Printf.fprintf oc
        "  \"serve\": {\"workers\": 2, \"clients\": 2, \"batch_jobs\": %d, \"cold_wall_s\": \
         %.4f, \"warm_wall_s\": %.4f, \"cold_jobs_per_sec\": %.2f, \"warm_jobs_per_sec\": %.2f, \
         \"cold_hits\": %d, \"cold_misses\": %d, \"warm_hits\": %d, \"warm_misses\": %d, \
         \"identical\": true}\n"
        batch cold_wall warm_wall (jps cold_wall) (jps warm_wall) cold_hits cold_misses warm_hits
        warm_misses);
  rm_rf store_dir;
  rm_rf serve_dir

(* ------------------------------------------------------------------ *)
(* Rf kernel: the PR-9 benchmark. Every exhaustive registry structure
   (first unit test, pruning on) is explored with the incremental
   rf-consistency kernel on and off, serial and on two domains. For
   rows where every run exhausts the tree, the distinct-graph sets and
   bug lists must be bit-identical across all four runs — and the
   serial pair must also agree on the first buggy trace and on the
   pre-replay rejection ledger (same queries, same stores excluded);
   any divergence is a hard failure, so the `--smoke` run doubles as
   CI's kernel-soundness gate. The spin-heavy MCS/Chase-Lev rows
   (pruning off, best-of-N) measure the kernel's wall-clock win in the
   regime that motivates it: long per-location histories rescanned on
   every read. Emitted as BENCH_PR9.json with the rejected-before-replay
   counts next to the post-replay prune counts.                        *)

let rf_json_file = "BENCH_PR9.json"

type rf_row = {
  rf_workload : string;
  rf_explored : int;
  rf_graphs : int;
  rf_on_wall_s : float;
  rf_off_wall_s : float;
  rf_queries : int;
  rf_fast : int;
  rf_rejected : int;  (* stores excluded before replay (kernel-on run) *)
  rf_pruned : int;  (* runs pruned after replay (kernel-on run) *)
  rf_gated : bool;
}

let rf_explore ?loop_bound ~kernel ~prune ~jobs:j ~max_execs (b : B.t) (t : B.test) =
  let ords = Structures.Ords.default b.sites in
  let sched = { b.scheduler with Mc.Scheduler.rf_kernel = kernel } in
  let sched =
    match loop_bound with
    | None -> sched
    | Some lb -> { sched with Mc.Scheduler.loop_bound = lb }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Mc.Parallel.explore ~jobs:j ~strategy:`Steal
      ~config:{ E.default_config with scheduler = sched; max_executions = max_execs; prune }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program ords)
  in
  (Unix.gettimeofday () -. t0, r)

let rf_one ~max_execs (b : B.t) =
  let t = List.hd b.tests in
  let timed kernel =
    (* compact before each timed leg: heap state drifts over the
       process lifetime and would otherwise bias whichever mode runs
       later *)
    Gc.compact ();
    rf_explore ~kernel ~prune:true ~jobs:1 ~max_execs b t
  in
  let wall_on, on = timed true in
  let wall_off, off = timed false in
  let _, on2 = rf_explore ~kernel:true ~prune:true ~jobs:2 ~max_execs b t in
  let _, off2 = rf_explore ~kernel:false ~prune:true ~jobs:2 ~max_execs b t in
  (* The serial pair's identity gate is unconditional: the kernel only
     changes how fast a candidate window is computed, never its
     contents, so a serial DFS explores the same prefix even when the
     cap truncates it. *)
  if off.stats.explored <> on.stats.explored then
    failwith ("rf-bench: explored counts diverge between kernel-on and kernel-off on " ^ b.name);
  if off.graphs <> on.graphs then
    failwith
      ("rf-bench: distinct-graph sets diverge between kernel-on and kernel-off on " ^ b.name);
  if List.map Mc.Bug.key off.bugs <> List.map Mc.Bug.key on.bugs then
    failwith ("rf-bench: bug lists diverge between kernel-on and kernel-off on " ^ b.name);
  if on.first_buggy_trace <> off.first_buggy_trace then
    failwith ("rf-bench: first buggy traces diverge between kernel-on and kernel-off on " ^ b.name);
  if on.stats.rf_queries <> off.stats.rf_queries || on.stats.rf_rejected <> off.stats.rf_rejected
  then
    failwith
      ("rf-bench: the pre-replay rejection ledger diverges between kernel-on and kernel-off on "
     ^ b.name);
  (* Work-stealing split order is legitimately cap-dependent, so the
     -j2 legs join the gate only when the whole quadruple completes. *)
  let gated =
    (not on.stats.truncated)
    && List.for_all
         (fun (r : E.result) -> not r.stats.truncated)
         [ off; on2; off2 ]
  in
  if gated then
    List.iter
      (fun (what, (r : E.result)) ->
        if r.graphs <> on.graphs then
          failwith
            (Printf.sprintf "rf-bench: distinct-graph sets diverge (kernel-on vs %s) on %s" what
               b.name);
        if List.map Mc.Bug.key r.bugs <> List.map Mc.Bug.key on.bugs then
          failwith
            (Printf.sprintf "rf-bench: bug lists diverge (kernel-on vs %s) on %s" what b.name))
      [ ("kernel-on -j2", on2); ("kernel-off -j2", off2) ]
  else
    (* no silent caps: a truncated quadruple still passes the serial
       gate above but skips the parallel legs, and says so *)
    Format.printf "  note: %s truncated at the execution cap; -j2 identity legs skipped@." b.name;
  {
    rf_workload = b.name ^ "/" ^ t.test_name;
    rf_explored = on.stats.explored;
    rf_graphs = on.stats.distinct_graphs;
    rf_on_wall_s = wall_on;
    rf_off_wall_s = wall_off;
    rf_queries = on.stats.rf_queries;
    rf_fast = on.stats.rf_fast;
    rf_rejected = on.stats.rf_rejected;
    rf_pruned =
      on.stats.pruned_equiv + on.stats.pruned_sleep_set + on.stats.pruned_loop_bound
      + on.stats.pruned_max_actions;
    rf_gated = gated;
  }

(* Spin rows: pruning off, serial, best-of-N walls (the engines are
   deterministic; the host is not). Modes alternate within each round
   with the leading mode flipped per round, and the heap is compacted
   before every timed run — timing all reps of one mode and then all of
   the other lets heap drift load onto the second batch and has shown
   itself as a phantom ±5% on seconds-scale walls. *)
let rf_spin_one ?loop_bound ~max_execs ~reps (b : B.t) test_name =
  let t = find_test b test_name in
  let best_on = ref (infinity, None) in
  let best_off = ref (infinity, None) in
  let run kernel =
    Gc.compact ();
    let w, r = rf_explore ?loop_bound ~kernel ~prune:false ~jobs:1 ~max_execs b t in
    let best = if kernel then best_on else best_off in
    if w < fst !best then best := (w, Some r)
  in
  for rep = 0 to reps - 1 do
    let first = rep land 1 = 0 in
    run first;
    run (not first)
  done;
  let take best = match !best with _, None -> assert false | w, Some r -> (w, r) in
  let wall_on, on = take best_on in
  let wall_off, off = take best_off in
  (* Serial prune-off exploration is deterministic and the kernel never
     changes a candidate window, so the two modes must agree on the
     explored prefix even when the cap truncates it — the spin-row
     identity gate is unconditional. *)
  if on.stats.explored <> off.stats.explored then
    failwith
      ("rf-bench: spin-row explored counts diverge between kernel-on and kernel-off on " ^ b.name);
  if on.graphs <> off.graphs then
    failwith ("rf-bench: spin-row graph sets diverge between kernel-on and kernel-off on " ^ b.name);
  if List.map Mc.Bug.key on.bugs <> List.map Mc.Bug.key off.bugs then
    failwith ("rf-bench: spin-row bug lists diverge between kernel-on and kernel-off on " ^ b.name);
  if on.stats.rf_queries <> off.stats.rf_queries || on.stats.rf_rejected <> off.stats.rf_rejected
  then
    failwith
      ("rf-bench: spin-row rejection ledgers diverge between kernel-on and kernel-off on " ^ b.name);
  {
    rf_workload = b.name ^ "/" ^ test_name;
    rf_explored = on.stats.explored;
    rf_graphs = on.stats.distinct_graphs;
    rf_on_wall_s = wall_on;
    rf_off_wall_s = wall_off;
    rf_queries = on.stats.rf_queries;
    rf_fast = on.stats.rf_fast;
    rf_rejected = on.stats.rf_rejected;
    rf_pruned =
      on.stats.pruned_equiv + on.stats.pruned_sleep_set + on.stats.pruned_loop_bound
      + on.stats.pruned_max_actions;
    (* the serial identity gate above is unconditional for spin rows *)
    rf_gated = true;
  }

let rf_speedup r = if r.rf_on_wall_s > 0. then r.rf_off_wall_s /. r.rf_on_wall_s else 1.

let write_rf_json registry spin =
  write_bench_file ~default:rf_json_file ~pr:9
    ~note:(if !smoke then " (smoke)" else "")
    (fun oc ->
      Printf.fprintf oc
        "  \"smoke\": %b,\n  \"median_speedup\": %.2f,\n  \"median_spin_speedup\": %.2f,\n  \
         \"registry\": [\n"
        !smoke
        (median (List.map rf_speedup registry))
        (median (List.map rf_speedup spin));
      let row i n r =
        Printf.fprintf oc
          "    {\"workload\": %S, \"explored\": %d, \"distinct_graphs\": %d, \"wall_kernel_on_s\": \
           %.4f, \"wall_kernel_off_s\": %.4f, \"speedup\": %.2f, \"rf_queries\": %d, \
           \"rf_fast\": %d, \"rejected_before_replay\": %d, \"pruned_after_replay\": %d, \
           \"identical\": %b}%s\n"
          r.rf_workload r.rf_explored r.rf_graphs r.rf_on_wall_s r.rf_off_wall_s (rf_speedup r)
          r.rf_queries r.rf_fast r.rf_rejected r.rf_pruned r.rf_gated
          (if i = n - 1 then "" else ",")
      in
      List.iteri (fun i r -> row i (List.length registry) r) registry;
      Printf.fprintf oc "  ],\n  \"spin\": [\n";
      List.iteri (fun i r -> row i (List.length spin) r) spin;
      Printf.fprintf oc "  ]\n")

let run_rf () =
  section
    (Printf.sprintf "Rf kernel: incremental consistency summaries%s"
       (if !smoke then " (smoke subset)" else ""));
  let max_execs = if !smoke then Some 20_000 else Some 400_000 in
  Format.printf "%-34s %9s %7s %10s %10s %8s %12s %11s@." "Workload" "explored" "graphs"
    "off (s)" "on (s)" "speedup" "rejected<rp" "pruned>rp";
  let print r =
    Format.printf "%-34s %9d %7d %10.3f %10.3f %7.2fx %12d %11d%s@." r.rf_workload r.rf_explored
      r.rf_graphs r.rf_off_wall_s r.rf_on_wall_s (rf_speedup r) r.rf_rejected r.rf_pruned
      (if r.rf_gated then "" else "  (gate skipped)")
  in
  let registry =
    List.map
      (fun b ->
        let r = rf_one ~max_execs b in
        print r;
        r)
      Structures.Registry.exhaustive
  in
  if not (List.exists (fun r -> r.rf_gated) registry) then
    failwith "rf-bench: every kernel quadruple truncated; the identity gate never ran";
  (* best-of walls even in smoke: single-shot sub-second timings on a
     shared host are +-20% noise, which would misread as regressions *)
  let reps = if !smoke then 3 else 5 in
  Format.printf "@.%-34s %9s %7s %10s %10s %8s %12s@." "Spin workload (prune off)" "explored"
    "graphs" "off (s)" "on (s)" "speedup" "rejected<rp";
  let spin =
    List.map
      (fun (b, test_name, loop_bound) ->
        let r = rf_spin_one ?loop_bound ~max_execs ~reps b test_name in
        Format.printf "%-34s %9d %7d %10.3f %10.3f %7.2fx %12d@." r.rf_workload r.rf_explored
          r.rf_graphs r.rf_off_wall_s r.rf_on_wall_s (rf_speedup r) r.rf_rejected;
        r)
      [
        (Structures.Mcs_lock.benchmark, "two-threads", Some 48);
        (Structures.Chase_lev_deque.benchmark, "small", None);
      ]
  in
  write_rf_json registry spin

(* ------------------------------------------------------------------ *)
(* Commit path: the PR-10 benchmark. The commit-path overhaul's
   dispatch layer — first-run direct dispatch ([inline_visible]) plus
   the finished-thread replay skip ([replay_finished = false], sound
   here: these workloads observe only the execution graph) — against
   the PR-9-equivalent dispatch (every operation a fiber switch, every
   finished thread replayed). Both legs share the packed-clock and
   monomorphic commit kernels, so the delta isolates the dispatch
   layer. Every exhaustive registry structure (first unit test, prune
   on, checker on) runs in both modes plus the legacy fresh-run engine;
   serial DFS is deterministic, so explored counts, distinct-graph
   sets, bug lists and first traces must be bit-identical across all
   three — any divergence is a hard failure, making the `--smoke` run
   CI's dispatch-soundness gate. The spin rows (prune off, best-of-N)
   measure the wall-clock win in the restore-dominated regime the
   overhaul targets. Emitted as BENCH_PR10.json with the per-phase
   counters (commits, fiber switches, inline ops, snapshots, restores)
   in every row.                                                       *)

let commit_json_file = "BENCH_PR10.json"

type cm_row = {
  cm_workload : string;
  cm_explored : int;
  cm_graphs : int;
  cm_base_wall_s : float;
  cm_over_wall_s : float;
  cm_commits : int;
  cm_switches : int;
  cm_inline : int;
  cm_snapshots : int;
  cm_restores : int;
}

let cm_explore ?loop_bound ~mode ~prune ~max_execs (b : B.t) (t : B.test) =
  let ords = Structures.Ords.default b.sites in
  let sched, engine =
    match mode with
    | `Base ->
      ({ b.scheduler with Mc.Scheduler.inline_visible = false; replay_finished = true }, `Arena)
    | `Overhaul ->
      ({ b.scheduler with Mc.Scheduler.inline_visible = true; replay_finished = false }, `Arena)
    | `Legacy -> (b.scheduler, `Legacy)
  in
  let sched =
    match loop_bound with
    | None -> sched
    | Some lb -> { sched with Mc.Scheduler.loop_bound = lb }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Mc.Parallel.explore ~jobs:1 ~strategy:`Steal
      ~config:
        { E.default_config with scheduler = sched; engine; max_executions = max_execs; prune }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program ords)
  in
  (Unix.gettimeofday () -. t0, r)

(* Serial DFS is deterministic and the dispatch mode never changes a
   decision, so the identity gates are unconditional even when the
   execution cap truncates the tree. *)
let cm_gate ~what (b : B.t) (r : E.result) (base : E.result) =
  if r.stats.explored <> base.stats.explored then
    failwith (Printf.sprintf "commit-bench: explored counts diverge (%s) on %s" what b.name);
  if r.graphs <> base.graphs then
    failwith (Printf.sprintf "commit-bench: distinct-graph sets diverge (%s) on %s" what b.name);
  if List.map Mc.Bug.key r.bugs <> List.map Mc.Bug.key base.bugs then
    failwith (Printf.sprintf "commit-bench: bug lists diverge (%s) on %s" what b.name);
  if r.first_buggy_trace <> base.first_buggy_trace then
    failwith (Printf.sprintf "commit-bench: first buggy traces diverge (%s) on %s" what b.name)

let cm_row (b : B.t) test_name ~wall_base ~wall_over (over : E.result) =
  {
    cm_workload = b.name ^ "/" ^ test_name;
    cm_explored = over.stats.explored;
    cm_graphs = over.stats.distinct_graphs;
    cm_base_wall_s = wall_base;
    cm_over_wall_s = wall_over;
    cm_commits = over.stats.commits;
    cm_switches = over.stats.fiber_switches;
    cm_inline = over.stats.inline_ops;
    cm_snapshots = over.stats.snapshots;
    cm_restores = over.stats.restores;
  }

let cm_one ~max_execs (b : B.t) =
  let t = List.hd b.tests in
  let timed mode =
    Gc.compact ();
    cm_explore ~mode ~prune:true ~max_execs b t
  in
  let wall_base, base = timed `Base in
  let wall_over, over = timed `Overhaul in
  let _, legacy = cm_explore ~mode:`Legacy ~prune:true ~max_execs b t in
  cm_gate ~what:"overhaul vs base" b over base;
  cm_gate ~what:"overhaul vs legacy" b over legacy;
  cm_row b t.test_name ~wall_base ~wall_over over

(* Spin rows: prune off, best-of-N walls, modes alternating within each
   round with the leading mode flipped per round (same discipline as
   the rf spin rows — heap drift otherwise loads onto the later
   batch). *)
let cm_spin_one ?loop_bound ~max_execs ~reps (b : B.t) test_name =
  let t = find_test b test_name in
  let best_base = ref (infinity, None) in
  let best_over = ref (infinity, None) in
  let run over =
    Gc.compact ();
    let mode = if over then `Overhaul else `Base in
    let w, r = cm_explore ?loop_bound ~mode ~prune:false ~max_execs b t in
    let best = if over then best_over else best_base in
    if w < fst !best then best := (w, Some r)
  in
  for rep = 0 to reps - 1 do
    let first = rep land 1 = 0 in
    run first;
    run (not first)
  done;
  let take best = match !best with _, None -> assert false | w, Some r -> (w, r) in
  let wall_base, base = take best_base in
  let wall_over, over = take best_over in
  cm_gate ~what:"overhaul vs base, spin" b over base;
  cm_row b test_name ~wall_base ~wall_over over

let cm_speedup r = if r.cm_over_wall_s > 0. then r.cm_base_wall_s /. r.cm_over_wall_s else 1.

let write_commit_json registry spin =
  write_bench_file ~default:commit_json_file ~pr:10
    ~note:(if !smoke then " (smoke)" else "")
    (fun oc ->
      Printf.fprintf oc
        "  \"smoke\": %b,\n  \"baseline\": \"inline_visible=off, replay_finished=on \
         (PR9-equivalent dispatch; packed clocks and monomorphic commit kernels in both \
         legs)\",\n  \"median_speedup\": %.2f,\n  \"median_spin_speedup\": %.2f,\n  \
         \"registry\": [\n"
        !smoke
        (median (List.map cm_speedup registry))
        (median (List.map cm_speedup spin));
      let row i n r =
        Printf.fprintf oc
          "    {\"workload\": %S, \"explored\": %d, \"distinct_graphs\": %d, \
           \"wall_base_s\": %.4f, \"wall_overhaul_s\": %.4f, \"speedup\": %.2f, \
           \"commits\": %d, \"fiber_switches\": %d, \"inline_ops\": %d, \"snapshots\": %d, \
           \"restores\": %d, \"identical\": true}%s\n"
          r.cm_workload r.cm_explored r.cm_graphs r.cm_base_wall_s r.cm_over_wall_s
          (cm_speedup r) r.cm_commits r.cm_switches r.cm_inline r.cm_snapshots r.cm_restores
          (if i = n - 1 then "" else ",")
      in
      List.iteri (fun i r -> row i (List.length registry) r) registry;
      Printf.fprintf oc "  ],\n  \"spin\": [\n";
      List.iteri (fun i r -> row i (List.length spin) r) spin;
      Printf.fprintf oc "  ]\n")

let run_commit () =
  section
    (Printf.sprintf "Commit path: first-run direct dispatch%s"
       (if !smoke then " (smoke subset)" else ""));
  let max_execs = if !smoke then Some 20_000 else Some 400_000 in
  Format.printf "%-34s %9s %7s %10s %10s %8s %10s %10s@." "Workload" "explored" "graphs"
    "base (s)" "over (s)" "speedup" "inline" "switches";
  let print r =
    Format.printf "%-34s %9d %7d %10.3f %10.3f %7.2fx %10d %10d@." r.cm_workload r.cm_explored
      r.cm_graphs r.cm_base_wall_s r.cm_over_wall_s (cm_speedup r) r.cm_inline r.cm_switches
  in
  let registry =
    List.map
      (fun b ->
        let r = cm_one ~max_execs b in
        print r;
        r)
      Structures.Registry.exhaustive
  in
  let reps = if !smoke then 3 else 5 in
  Format.printf "@.%-34s %9s %7s %10s %10s %8s %10s %10s@." "Spin workload (prune off)" "explored"
    "graphs" "base (s)" "over (s)" "speedup" "restores" "snapshots";
  let spin =
    List.map
      (fun (b, test_name, loop_bound) ->
        let r = cm_spin_one ?loop_bound ~max_execs ~reps b test_name in
        Format.printf "%-34s %9d %7d %10.3f %10.3f %7.2fx %10d %10d@." r.cm_workload r.cm_explored
          r.cm_graphs r.cm_base_wall_s r.cm_over_wall_s (cm_speedup r) r.cm_restores
          r.cm_snapshots;
        r)
      [
        (Structures.Mcs_lock.benchmark, "two-threads", Some 48);
        (Structures.Chase_lev_deque.benchmark, "small", None);
      ]
  in
  write_commit_json registry spin

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* split --jobs N / --jobs=N / -j N off the job-name list *)
  let rec parse acc = function
    | [] -> List.rev acc
    | [ ("--jobs" | "-j") ] -> failwith "--jobs: missing value"
    | ("--jobs" | "-j") :: n :: rest -> (
      match int_of_string_opt n with
      | Some n ->
        jobs := (if n <= 0 then Domain.recommended_domain_count () else n);
        parse acc rest
      | None -> failwith ("--jobs: not an integer: " ^ n))
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
      let n = String.sub arg 7 (String.length arg - 7) in
      match int_of_string_opt n with
      | Some n ->
        jobs := (if n <= 0 then Domain.recommended_domain_count () else n);
        parse acc rest
      | None -> failwith ("--jobs=: not an integer: " ^ n))
    | "--smoke" :: rest ->
      smoke := true;
      parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  (match Harness.Experiments.jobs_of_env () with
  | n -> jobs := n
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2);
  let names = try parse [] args with Failure msg -> prerr_endline msg; exit 2 in
  let names =
    if names = [] then [ "fig7"; "fig8"; "expr"; "known"; "ablation"; "timing"; "fuzz"; "lint" ]
    else names
  in
  List.iter
    (fun job ->
      match job with
      | "fig7" -> run_fig7 ()
      | "fig8" -> run_fig8 ()
      | "expr" -> run_expr ()
      | "known" -> run_known ()
      | "ablation" -> run_ablation ()
      | "timing" -> run_timing ()
      | "fuzz" -> run_fuzz ()
      | "lint" -> run_lint ()
      | "explore" -> run_explore ()
      | "replay" -> run_replay ()
      | "serve" -> run_serve ()
      | "rf" -> run_rf ()
      | "commit" -> run_commit ()
      | other ->
        Format.printf
          "unknown job %S \
           (fig7|fig8|expr|known|ablation|timing|fuzz|lint|explore|replay|serve|rf|commit)@."
          other)
    names
