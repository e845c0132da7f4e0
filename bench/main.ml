(* Regenerates every table and figure in the paper's evaluation
   (section 6), plus the ablations called out in DESIGN.md.

   Usage:
     bench/main.exe            run every job below
     bench/main.exe fig7       Figure 7  — benchmark results
     bench/main.exe fig8       Figure 8  — bug-injection detection
     bench/main.exe expr       section 6.2 expressiveness statistics
     bench/main.exe known      section 6.4.1 known bugs
     bench/main.exe ablation   design-choice ablations

   `--jobs N` (or CDSSPEC_JOBS=N) runs every exploration on N domains;
   0 means one per recommended core. An unknown job name exits 2 before
   any job runs. *)

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
  section "Figure 8: bug-injection detection (paper: 93% overall, MPMC the outlier)";
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

let all_jobs =
  [
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("expr", run_expr);
    ("known", run_known);
    ("ablation", run_ablation);
  ]

let usage =
  Printf.sprintf "usage: main.exe [--jobs N] [%s]..." (String.concat "|" (List.map fst all_jobs))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let set_jobs flag n =
    match int_of_string_opt n with
    | Some n -> jobs := if n <= 0 then Domain.recommended_domain_count () else n
    | None -> failwith (flag ^ ": not an integer: " ^ n)
  in
  (* split --jobs N / --jobs=N / -j N off the job-name list *)
  let rec parse acc = function
    | [] -> List.rev acc
    | [ ("--jobs" | "-j") ] -> failwith "--jobs: missing value"
    | ("--jobs" | "-j") :: n :: rest ->
      set_jobs "--jobs" n;
      parse acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_jobs "--jobs=" (String.sub arg 7 (String.length arg - 7));
      parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  (match Harness.Experiments.jobs_of_env () with
  | n -> jobs := n
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2);
  let names = try parse [] args with Failure msg -> prerr_endline msg; exit 2 in
  (* resolve every name first: a typo must not pass after other jobs ran *)
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name all_jobs with
        | Some run -> run
        | None ->
          Printf.eprintf "unknown job %S\n%s\n" name usage;
          exit 2)
      (if names = [] then List.map fst all_jobs else names)
  in
  List.iter (fun run -> run ()) runs
