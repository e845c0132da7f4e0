(* PR-5 differential tests for equivalence pruning.

   The pruning soundness contract: for every exhaustive registry
   structure, exploring with [prune = true] must report exactly the same
   distinct-graph set, the same deduplicated bug list (same keys, same
   order — including checker verdicts, which arrive through the
   [Cdsspec.Checker.hook] as spec-violation bugs) and the same first
   buggy trace as the unpruned explorer — in serial and under [-j2]
   work-stealing parallelism. Pruning may only cut work, never add it:
   the pruned run explores at most as many interleavings. *)

module E = Mc.Explorer
module B = Structures.Benchmark

(* The first buggy execution's action log, as [check -v] prints it. *)
let render = Format.asprintf "%a" C11.Execution.pp

(* Large enough that every gated structure exhausts; runs that still
   truncate are skipped (truncated pruned/unpruned pairs legitimately
   diverge) but the test fails if too few structures were actually
   compared, so the differential can never go vacuous. *)
let cap = 30_000

let explore ~prune ~jobs (b : B.t) ~ords (t : B.test) =
  let config =
    {
      E.default_config with
      scheduler = b.B.scheduler;
      max_executions = Some cap;
      prune;
    }
  in
  let hook = Cdsspec.Checker.hook b.B.spec in
  if jobs <= 1 then E.explore ~config ~on_feasible:hook (t.B.program ords)
  else Mc.Parallel.explore ~config ~on_feasible:hook ~jobs (t.B.program ords)

let keys (r : E.result) = List.map Mc.Bug.key r.bugs

(* Compare a pruned run against the unpruned reference: identical
   semantic outputs, never more work. *)
let check_against ~where (off : E.result) (on_ : E.result) =
  Alcotest.(check bool) (where ^ ": pruned run exhausts too") false on_.stats.truncated;
  Alcotest.(check bool)
    (where ^ ": pruning never adds work")
    true
    (on_.stats.explored <= off.stats.explored);
  Alcotest.(check int)
    (where ^ ": distinct graphs")
    off.stats.distinct_graphs on_.stats.distinct_graphs;
  Alcotest.(check bool) (where ^ ": graph sets identical") true (off.graphs = on_.graphs);
  Alcotest.(check (list string)) (where ^ ": bug keys") (keys off) (keys on_);
  Alcotest.(check (option string))
    (where ^ ": first buggy trace")
    (Option.map render off.first_buggy_exec) (Option.map render on_.first_buggy_exec)

let check_structure ?ords ?(label = "") (b : B.t) gated =
  let ords = match ords with Some o -> o | None -> Structures.Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let where = b.B.name ^ label ^ "/" ^ t.B.test_name in
  let off = explore ~prune:false ~jobs:1 b ~ords t in
  if off.stats.truncated then
    (* beyond the cap: the unpruned reference is partial, so the
       graph-set comparison is meaningless — skip, counted by [gated] *)
    ()
  else begin
    incr gated;
    let on_serial = explore ~prune:true ~jobs:1 b ~ords t in
    let on_par = explore ~prune:true ~jobs:2 b ~ords t in
    check_against ~where:(where ^ " (serial)") off on_serial;
    check_against ~where:(where ^ " (-j2)") off on_par;
    (* the pruned counters reconcile: every explored run either repeats a
       known graph or contributes a fresh one (or was cut earlier) *)
    Alcotest.(check bool)
      (where ^ ": pruned_equiv bounded")
      true
      (on_serial.stats.pruned_equiv <= on_serial.stats.explored)
  end

let test_registry_differential () =
  let gated = ref 0 in
  List.iter (fun b -> check_structure b gated) Structures.Registry.exhaustive;
  (* the gate must not be vacuous: most exhaustive structures exhaust
     well under the cap *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 12 structures gated (got %d)" !gated)
    true (!gated >= 12)

(* Known-buggy memory orders: pruning must preserve the bug list and the
   elected first buggy trace, not just graph counts. *)
let test_buggy_differential () =
  let b =
    match Structures.Registry.find "M&S Queue" with
    | Some b -> b
    | None -> Alcotest.fail "missing M&S Queue"
  in
  let gated = ref 0 in
  List.iter
    (fun (label, ords) -> check_structure ~ords ~label:("[" ^ label ^ "]") b gated)
    Structures.Ms_queue.known_bugs;
  Alcotest.(check bool) "buggy configurations gated" true (!gated >= 1);
  (* sanity: the weakened orders do produce bugs, so the bug-list
     comparison above was not trivially empty = empty *)
  let _, ords = List.hd Structures.Ms_queue.known_bugs in
  let t = List.hd b.B.tests in
  let r = explore ~prune:true ~jobs:1 b ~ords t in
  Alcotest.(check bool) "weakened M&S queue buggy under pruning" true (r.bugs <> [])

(* On a structure with rich graph-repetition (many interleavings per
   graph), pruning must actually fire — guards against a fingerprint so
   fine-grained it never matches. *)
let test_pruning_fires () =
  let b =
    match Structures.Registry.find "Seqlock" with
    | Some b -> b
    | None -> Alcotest.fail "missing Seqlock"
  in
  let ords = Structures.Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let off = explore ~prune:false ~jobs:1 b ~ords t in
  let on_ = explore ~prune:true ~jobs:1 b ~ords t in
  Alcotest.(check bool) "reference exhausts" false off.stats.truncated;
  Alcotest.(check bool) "pruning fired" true (on_.stats.pruned_equiv > 0);
  Alcotest.(check bool)
    "strictly fewer interleavings"
    true
    (on_.stats.explored < off.stats.explored)

let () =
  Alcotest.run "prune"
    [
      ( "differential",
        [
          Alcotest.test_case "every exhaustive structure" `Slow test_registry_differential;
          Alcotest.test_case "known-buggy orders" `Quick test_buggy_differential;
          Alcotest.test_case "pruning fires" `Quick test_pruning_fires;
        ] );
    ]
