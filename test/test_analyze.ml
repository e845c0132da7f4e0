(* Tests for the analysis layer (lib/analyze): the fact collector, the
   lint rule engine, the counterexample-guided weakening advisor and the
   pinned JSON report schema. *)

module Mo = C11.Memory_order
module Ords = Structures.Ords
module B = Structures.Benchmark
module AS = Analyze.Access_summary
module Lint = Analyze.Lint
module Weaken = Analyze.Weaken

let bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.failf "no benchmark %S in the registry" name

(* --- Ords.downgrades ------------------------------------------------ *)

let test_downgrades () =
  let chain kind order =
    Ords.downgrades (Ords.site "s" kind order) |> List.map Mo.to_string
  in
  Alcotest.(check (list string))
    "seq_cst rmw"
    [ "acq_rel"; "release"; "relaxed" ]
    (chain Mo.For_rmw Mo.Seq_cst);
  Alcotest.(check (list string))
    "seq_cst load" [ "acquire"; "relaxed" ] (chain Mo.For_load Mo.Seq_cst);
  Alcotest.(check (list string))
    "release store" [ "relaxed" ] (chain Mo.For_store Mo.Release);
  Alcotest.(check (list string)) "relaxed load" [] (chain Mo.For_load Mo.Relaxed)

(* --- golden lint findings on an over-synchronized Treiber stack ------ *)

(* Forcing every site to seq_cst makes the acquire/SC rules fire: the
   published table needs no acquire on pop's next-pointer load and no SC
   anywhere, so the all-seq_cst variant must produce exactly the advice
   findings below (in rule order, all on pop_load_next). *)
let test_all_seq_cst_treiber () =
  let b = bench "Treiber Stack" in
  let all_sc =
    {
      b with
      B.sites =
        List.map (fun (s : Ords.site) -> { s with Ords.order = Mo.Seq_cst }) b.sites;
    }
  in
  let summary = AS.collect all_sc in
  Alcotest.(check (list int)) "no bugs" [] (List.map (fun _ -> 0) summary.AS.bugs);
  Alcotest.(check bool) "untruncated" false summary.AS.truncated;
  let findings = Lint.lint summary in
  let shape =
    List.map
      (fun (f : Lint.finding) ->
        (Lint.severity_to_string f.severity, f.rule, Option.value ~default:"-" f.site))
      findings
  in
  Alcotest.(check (list (triple string string string)))
    "golden findings"
    [
      ("advice", "acquire-never-gains", "pop_load_next");
      ("advice", "seq-cst-unconstrained", "pop_load_next");
      ("advice", "single-thread-atomic", "pop_load_next");
    ]
    shape

(* --- advisor finds the safe weakening on the published Treiber ------- *)

let test_treiber_safe_to_weaken () =
  let b = bench "Treiber Stack" in
  let summary = AS.collect b in
  Alcotest.(check bool) "baseline untruncated" false summary.AS.truncated;
  let findings = Lint.lint summary in
  let report = Weaken.advise ~findings b ~summary in
  Alcotest.(check bool) "advisor untruncated" false report.Weaken.truncated;
  let cand =
    List.find_opt
      (fun (c : Weaken.candidate) ->
        c.Weaken.site = "pop_cas_top" && c.Weaken.to_order = Mo.Release)
      report.Weaken.candidates
  in
  match cand with
  | None -> Alcotest.fail "no pop_cas_top -> release candidate"
  | Some c ->
    Alcotest.(check string)
      "safe to weaken" "safe-to-weaken"
      (Weaken.verdict_to_string c.Weaken.verdict)

(* --- advisor pins the injected seqlock bug with a replayable witness - *)

let seqlock_config = { AS.default_config with AS.max_executions = Some 25_000 }

let test_seqlock_spec_violating () =
  let b = bench "Seqlock" in
  let summary = AS.collect ~config:seqlock_config b in
  let wconfig =
    { Weaken.default_config with Weaken.max_executions = Some 25_000 }
  in
  let report = Weaken.advise ~config:wconfig ~only_sites:[ "write_store_seq" ] b ~summary in
  let cand =
    match report.Weaken.candidates with
    | [ c ] -> c
    | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs)
  in
  Alcotest.(check string) "weakened to relaxed" "relaxed" (Mo.to_string cand.Weaken.to_order);
  match cand.Weaken.verdict with
  | Weaken.Spec_violating { witness = Some trace; witness_test = Some test_name; _ } ->
    (* The witness must replay to a spec violation under `--replay`
       semantics: single run, sleep sets off, checker attached. *)
    let t =
      List.find (fun (t : B.test) -> t.B.test_name = test_name) b.B.tests
    in
    let decisions =
      match Fuzz.Engine.trace_of_string trace with
      | Some ds -> ds
      | None -> Alcotest.failf "unparseable witness trace %S" trace
    in
    let ords = Ords.with_order b.B.sites "write_store_seq" Mo.Relaxed in
    let scheduler = { b.B.scheduler with Mc.Scheduler.sleep_sets = false } in
    let on_feasible exec annots = Cdsspec.Checker.hook b.B.spec exec annots in
    let _, bugs =
      Fuzz.Engine.replay ~scheduler ~on_feasible ~decisions (t.B.program ords)
    in
    Alcotest.(check bool) "witness replays to a bug" true (bugs <> [])
  | v ->
    Alcotest.failf "expected spec-violating with witness, got %s"
      (Weaken.verdict_to_string v)

(* --- pinned JSON report schema --------------------------------------- *)

(* Exact golden output for the Atomic Register report (timings zeroed):
   any change to the cdsspec-lint/1 schema must update this string
   consciously. Deterministic: jobs = 1, no budget, exhaustive. *)
let golden_register_json =
  {gold|{
  "schema": "cdsspec-lint/1",
  "reports": [
    {
      "bench": "Atomic Register",
      "summary": {
        "explored": 1043,
        "feasible": 447,
        "buggy": 0,
        "truncated": false,
        "time_s": 0,
        "sites": [
          {
            "name": "reg_store",
            "kind": "store",
            "order": "relaxed",
            "occurrences": 887,
            "executions": 447,
            "release_writes": 0,
            "sw_edges": 0,
            "sw_carried": 0,
            "acquire_reads": 0,
            "acquire_gained": 0,
            "sc_ops": 0,
            "sc_constrained": 0,
            "cross_thread_reads": 377,
            "relaxed_published": 377,
            "access_tids": 4,
            "single_thread": false
          },
          {
            "name": "reg_load",
            "kind": "load",
            "order": "relaxed",
            "occurrences": 878,
            "executions": 447,
            "release_writes": 0,
            "sw_edges": 0,
            "sw_carried": 0,
            "acquire_reads": 0,
            "acquire_gained": 0,
            "sc_ops": 0,
            "sc_constrained": 0,
            "cross_thread_reads": 0,
            "relaxed_published": 0,
            "access_tids": 4,
            "single_thread": false
          }
        ],
        "methods": [
          {
            "name": "write",
            "calls": 887,
            "calls_with_ordering_point": 887
          },
          {
            "name": "read",
            "calls": 878,
            "calls_with_ordering_point": 878
          }
        ],
        "admissibility_rules": []
      },
      "findings": [
        {
          "rule": "relaxed-store-publishes",
          "severity": "info",
          "site": "reg_store",
          "message": "relaxed store read cross-thread 377 time(s) with no sw edge (e.g. action #6 read by #10); fine if the value is self-contained, an ordering bug if it publishes an object",
          "evidence": "#0 T0.1 start relaxed\n#1 T0.2 store relaxed @1 [<alloc>]\n#2 T0.3 store relaxed @1 w=0\n#3 T0.4 create(1) relaxed\n#4 T0.5 create(2) relaxed\n#5 T1.1 start relaxed\n#6 T1.2 store relaxed @1 w=1 [reg_store]\n#7 T1.3 finish relaxed\n#8 T0.6 join(1) relaxed\n#9 T2.1 start relaxed\n#10 T2.2 load relaxed @1 r=1 rf=#6 [reg_load]\n#11 T2.3 finish relaxed\n#12 T0.7 join(2) relaxed\n#13 T0.8 finish relaxed\n"
        }
      ],
      "advice": null
    }
  ]
}
|gold}

let test_json_schema () =
  let b = bench "Atomic Register" in
  let summary = AS.collect b in
  let findings = Lint.lint summary in
  let r = { Analyze.Report.summary; findings; advice = None } in
  let json =
    Analyze.Json.to_string (Analyze.Report.wrap [ Analyze.Report.to_json ~timings:false r ])
  in
  Alcotest.(check string) "pinned cdsspec-lint/1 schema" golden_register_json json

let () =
  Alcotest.run "analyze"
    [
      ("downgrades", [ Alcotest.test_case "chains" `Quick test_downgrades ]);
      ( "lint",
        [ Alcotest.test_case "all-seq_cst treiber golden" `Slow test_all_seq_cst_treiber ] );
      ( "advisor",
        [
          Alcotest.test_case "treiber safe-to-weaken" `Slow test_treiber_safe_to_weaken;
          Alcotest.test_case "seqlock spec-violating pin" `Slow test_seqlock_spec_violating;
        ] );
      ("report", [ Alcotest.test_case "json schema golden" `Slow test_json_schema ]);
    ]
