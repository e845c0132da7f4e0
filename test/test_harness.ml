(* Tests for the experiment harness: Figure 7/8 row construction,
   detection classification, expressiveness arithmetic, and the
   memory-order site tables. *)

module X = Harness.Experiments
module B = Structures.Benchmark

let cheap_limits = { X.max_executions = 20_000; jobs = 1 }

(* ------------------------------ Ords ----------------------------- *)

let test_ords_basics () =
  let sites = Structures.Blocking_queue.sites in
  let t = Structures.Ords.default sites in
  Alcotest.(check bool) "default lookup" true
    (Structures.Ords.get t "enq_cas_next" = C11.Memory_order.Release);
  Alcotest.check_raises "unknown site rejected"
    (Invalid_argument "Ords.get: unknown site nonsense") (fun () ->
      ignore (Structures.Ords.get t "nonsense"));
  (match Structures.Ords.weakened sites "enq_cas_next" with
  | Some w ->
    Alcotest.(check bool) "weakened one step" true
      (Structures.Ords.get w "enq_cas_next" = C11.Memory_order.Relaxed);
    Alcotest.(check bool) "others untouched" true
      (Structures.Ords.get w "deq_load_next" = C11.Memory_order.Acquire)
  | None -> Alcotest.fail "release should weaken");
  let pinned = Structures.Ords.with_order sites "deq_load_next" C11.Memory_order.Seq_cst in
  Alcotest.(check bool) "with_order pins" true
    (Structures.Ords.get pinned "deq_load_next" = C11.Memory_order.Seq_cst)

let test_ords_weakenable_counts () =
  (* every site of these benchmarks is weakenable except the relaxed ones *)
  let count name expected =
    match Structures.Registry.find name with
    | None -> Alcotest.fail ("missing benchmark " ^ name)
    | Some b ->
      Alcotest.(check int)
        (name ^ " weakenable sites")
        expected
        (List.length (Structures.Ords.weakenable b.sites))
  in
  count "Blocking Queue" 6;
  count "SPSC Queue" 2;
  count "Ticket Lock" 2;
  count "Atomic Register" 0;
  count "Contention-Free Lock" 2

(* --------------------------- Figure 7 ---------------------------- *)

let test_fig7_rows () =
  let benches = List.filter_map Structures.Registry.find [ "SPSC Queue"; "Atomic Register" ] in
  let rows = X.figure7 ~limits:cheap_limits benches in
  Alcotest.(check int) "one row per benchmark" 2 (List.length rows);
  List.iter
    (fun (r : X.fig7_row) ->
      Alcotest.(check bool) (r.name ^ " explored") true (r.executions > 0);
      Alcotest.(check bool) (r.name ^ " feasible") true
        (r.feasible > 0 && r.feasible <= r.executions))
    rows

(* --------------------------- Figure 8 ---------------------------- *)

let test_fig8_blocking_queue () =
  match Structures.Registry.find "Blocking Queue" with
  | None -> Alcotest.fail "missing"
  | Some b ->
    let rows = X.figure8 ~limits:cheap_limits [ b ] in
    (match rows with
    | [ r ] ->
      Alcotest.(check int) "injections" 6 r.injections;
      Alcotest.(check int) "all detected" 6 (r.builtin + r.admissibility + r.assertion);
      Alcotest.(check (list (pair string string))) "none undetected" [] (X.undetected rows)
    | _ -> Alcotest.fail "one row expected")

let test_fig8_register_trivial () =
  match Structures.Registry.find "Atomic Register" with
  | None -> Alcotest.fail "missing"
  | Some b ->
    let rows = X.figure8 ~limits:cheap_limits [ b ] in
    (match rows with
    | [ r ] -> Alcotest.(check int) "no weakenable sites" 0 r.injections
    | _ -> Alcotest.fail "one row expected")

(* ------------------------- expressiveness ------------------------ *)

let test_expressiveness_arithmetic () =
  let benches = List.filter_map Structures.Registry.find [ "Blocking Queue"; "SPSC Queue" ] in
  let e = X.expressiveness benches in
  Alcotest.(check int) "benchmarks" 2 e.benchmarks;
  Alcotest.(check int) "spec lines" (10 + 12) e.total_spec_lines;
  Alcotest.(check int) "methods" 4 e.api_methods;
  Alcotest.(check int) "ordering points" 4 e.ordering_points;
  Alcotest.(check int) "admissibility" 2 e.admissibility_lines;
  Alcotest.(check (float 0.01)) "avg" 11.0 e.avg_spec_lines;
  Alcotest.(check (float 0.01)) "ops per method" 1.0 e.ordering_points_per_method

(* --------------------------- known bugs -------------------------- *)

let test_known_bugs_found () =
  let rows = X.known_bugs ~limits:cheap_limits () in
  Alcotest.(check int) "three known bugs" 3 (List.length rows);
  List.iter
    (fun (r : X.known_bug_row) -> Alcotest.(check bool) (r.label ^ " found") true r.found)
    rows

(* ------------------------------ bugs ----------------------------- *)

let test_bug_keys_stable () =
  let b1 = Mc.Bug.Assertion_failure { tid = 1; message = "m" } in
  let b2 = Mc.Bug.Assertion_failure { tid = 2; message = "m" } in
  Alcotest.(check string) "assert keys dedupe by message" (Mc.Bug.key b1) (Mc.Bug.key b2);
  let s1 = Mc.Bug.Spec_violation { kind = "assertion"; message = "x" } in
  let s2 = Mc.Bug.Spec_violation { kind = "unjustified"; message = "x" } in
  Alcotest.(check bool) "spec keys distinguish kinds" true (Mc.Bug.key s1 <> Mc.Bug.key s2)

let () =
  Alcotest.run "harness"
    [
      ( "ords",
        [
          Alcotest.test_case "basics" `Quick test_ords_basics;
          Alcotest.test_case "weakenable counts" `Quick test_ords_weakenable_counts;
        ] );
      ("figure7", [ Alcotest.test_case "rows" `Quick test_fig7_rows ]);
      ( "figure8",
        [
          Alcotest.test_case "blocking queue" `Quick test_fig8_blocking_queue;
          Alcotest.test_case "register trivial" `Quick test_fig8_register_trivial;
        ] );
      ("expressiveness", [ Alcotest.test_case "arithmetic" `Quick test_expressiveness_arithmetic ]);
      ("known-bugs", [ Alcotest.test_case "found" `Quick test_known_bugs_found ]);
      ("bugs", [ Alcotest.test_case "keys" `Quick test_bug_keys_stable ]);
    ]
