(* Tests for the incremental rf-consistency kernel.

   The kernel contract: [read_candidates] and the allocation-free
   [read_window]/[read_candidate] pair must return exactly the writes
   the specification-style rescan [read_candidates_ref] returns. Two
   suites hold the kernel to it:

   - a randomized window differential over commit sequences mixing
     stores, loads, CAS-failure loads, RMWs, fences and arena
     mark/restore cycles;
   - an in-exploration audit that compares the live session arena with
     the reference at every feasible execution of the registry's
     explorations — the arena state that many restores and re-commits
     have passed through, which no hand-built sequence reaches. *)

module E = C11.Execution
module A = C11.Action
module B = Structures.Benchmark
module Ords = Structures.Ords
open C11.Memory_order

let sorted_ids l = List.sort Stdlib.compare (List.map (fun (a : A.t) -> a.A.id) l)

let window_ids x ~tid ~mo ~loc =
  let n = E.read_window x ~tid ~mo ~loc in
  List.sort Stdlib.compare (List.init n (fun i -> (E.read_candidate x ~loc i).A.id))

let load_mos = [| Relaxed; Acquire; Seq_cst |]

(* ------------------------------------------------------------------ *)
(* Randomized window differential *)

let store_mos = [| Relaxed; Release; Seq_cst |]
let rmw_mos = [| Relaxed; Acquire; Release; Acq_rel; Seq_cst |]
let fence_mos = [| Acquire; Release; Acq_rel; Seq_cst |]

(* Every query surface agrees with the reference. *)
let check_agree ~where x ~nthreads locs =
  for tid = 0 to nthreads - 1 do
    Array.iter
      (fun mo ->
        Array.iter
          (fun loc ->
            let reference = sorted_ids (E.read_candidates_ref x ~tid ~mo ~loc) in
            let check what got =
              Alcotest.(check (list int)) (Printf.sprintf "%s: %s = reference" where what) reference got
            in
            check "candidates" (sorted_ids (E.read_candidates x ~tid ~mo ~loc));
            check "window" (window_ids x ~tid ~mo ~loc))
          locs)
      load_mos
  done

(* 200 rounds: a kernel that drops the rarest rule — 29.3p7's
   fence-to-fence bound, which needs two threads' seq_cst fences and a
   store between them — survives 40. *)
let test_window_differential () =
  let rng = Random.State.make [| 0x9F; 0xC11; 9 |] in
  for round = 1 to 200 do
    let x = E.create () in
    let nthreads = 1 + Random.State.int rng 3 in
    for child = 1 to nthreads - 1 do
      ignore (E.commit_create x ~tid:0 ~child);
      ignore (E.commit_start x ~tid:child)
    done;
    let nlocs = 1 + Random.State.int rng 2 in
    let locs = Array.init nlocs (fun _ -> E.alloc x ~tid:0 ~count:1 ~init:(Some 0)) in
    let marks = ref [] in
    let value = ref 1 in
    for step = 1 to 16 + Random.State.int rng 12 do
      check_agree ~where:(Printf.sprintf "round %d step %d" round step) x ~nthreads locs;
      let tid = Random.State.int rng nthreads in
      let loc = locs.(Random.State.int rng nlocs) in
      match Random.State.int rng 12 with
      | 0 | 1 | 2 ->
        let mo = store_mos.(Random.State.int rng (Array.length store_mos)) in
        ignore (E.commit_store x ~tid ~mo ~loc ~value:!value ());
        incr value
      | 3 | 4 | 5 -> (
        let mo = load_mos.(Random.State.int rng (Array.length load_mos)) in
        match E.read_candidates x ~tid ~mo ~loc with
        | [] -> ()
        | cs ->
          let w = List.nth cs (Random.State.int rng (List.length cs)) in
          ignore (E.commit_load x ~tid ~mo ~loc ~rf:(Some w) ()))
      | 6 | 7 -> (
        (* the CAS-failure path: scan the window under the failure
           ordering, commit a load from a non-newest candidate *)
        let mo = load_mos.(Random.State.int rng (Array.length load_mos)) in
        match E.read_window x ~tid ~mo ~loc with
        | 0 -> ()
        | n ->
          let w = E.read_candidate x ~loc (Random.State.int rng n) in
          ignore (E.commit_load x ~tid ~mo ~loc ~rf:(Some w) ()))
      | 8 | 9 ->
        let mo = rmw_mos.(Random.State.int rng (Array.length rmw_mos)) in
        ignore (E.commit_rmw x ~tid ~mo ~loc ~value:!value ());
        incr value
      | 10 ->
        let mo = fence_mos.(Random.State.int rng (Array.length fence_mos)) in
        ignore (E.commit_fence x ~tid ~mo)
      | _ -> (
        (* arena backtracking: the kernel columns and the live-SC-fence
           count must rewind with the graph *)
        match Random.State.int rng 2, !marks with
        | 0, _ | _, [] -> marks := E.mark x :: !marks
        | _, m :: rest ->
          E.restore x m;
          marks := rest)
    done;
    check_agree ~where:(Printf.sprintf "round %d end" round) x ~nthreads locs
  done

(* ------------------------------------------------------------------ *)
(* In-exploration audit *)

let ids_to_string ids = "{" ^ String.concat ", " (List.map (Printf.sprintf "#%d") ids) ^ "}"

(* Compare the arena with the reference for every (thread, atomic
   location, load order) triple: the threads and locations are the ones
   the execution's actions name. *)
let audit_exec ~where x =
  let nthreads = ref 0 and locs = ref [] in
  for id = 0 to E.num_actions x - 1 do
    let a = E.action x id in
    nthreads := max !nthreads (a.A.tid + 1);
    if (A.is_atomic_read a || A.is_atomic_write a) && not (List.mem a.A.loc !locs) then
      locs := a.A.loc :: !locs
  done;
  for tid = 0 to !nthreads - 1 do
    List.iter
      (fun loc ->
        Array.iter
          (fun mo ->
            let reference = sorted_ids (E.read_candidates_ref x ~tid ~mo ~loc) in
            let window = window_ids x ~tid ~mo ~loc in
            if window <> reference then
              Alcotest.failf "%s: thread %d, location %d, %s: window %s, reference %s" where tid loc
                (to_string mo) (ids_to_string window) (ids_to_string reference))
          load_mos)
      (List.rev !locs)
  done

let audit_run ~prune ~cap (b : B.t) (t : B.test) =
  let where = Printf.sprintf "%s/%s (prune %b)" b.B.name t.B.test_name prune in
  let n = ref 0 in
  let on_feasible x _ =
    incr n;
    audit_exec ~where:(Printf.sprintf "%s, feasible execution %d" where !n) x;
    []
  in
  let config =
    { Mc.Explorer.default_config with scheduler = b.B.scheduler; max_executions = Some cap; prune }
  in
  let r = Mc.Explorer.explore ~config ~on_feasible (t.B.program (Ords.default b.B.sites)) in
  Alcotest.(check bool) (where ^ ": audited something") true (!n > 0 && r.stats.feasible > 0)

let test_audit_registry () =
  List.iter
    (fun (b : B.t) ->
      List.iter
        (fun t -> List.iter (fun prune -> audit_run ~prune ~cap:5_000 b t) [ true; false ])
        b.B.tests)
    Structures.Registry.exhaustive

(* Spin-heavy rows with pruning off: long per-location histories under
   deep restore/re-commit churn, the regime the kernel's columns
   target. Dekker Lock's [contend] loop writes before going round, so
   it is one of the spin loops that stays on the loop bound. *)
let test_audit_spin_rows () =
  List.iter
    (fun (name, test_name, loop_bound) ->
      let b = Option.get (Structures.Registry.find name) in
      let b =
        match loop_bound with
        | None -> b
        | Some loop_bound -> { b with B.scheduler = { b.B.scheduler with loop_bound } }
      in
      let t = List.find (fun (t : B.test) -> t.B.test_name = test_name) b.B.tests in
      audit_run ~prune:false ~cap:20_000 b t)
    [ ("Dekker Lock", "two-threads", Some 48); ("Chase-Lev Deque", "small", None) ]

let () =
  Alcotest.run "rf-kernel"
    [
      ( "window",
        [ Alcotest.test_case "randomized window differential" `Quick test_window_differential ] );
      ( "audit",
        [
          Alcotest.test_case "registry, both prune modes" `Slow test_audit_registry;
          Alcotest.test_case "spin rows, prune off" `Slow test_audit_spin_rows;
        ] );
    ]
