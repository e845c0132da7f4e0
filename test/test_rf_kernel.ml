(* PR-9 tests for the incremental rf-consistency kernel.

   The kernel contract: [read_candidates] and the allocation-free
   [read_window]/[read_candidate] pair must return exactly the writes
   the specification-style rescan [read_candidates_ref] returns — with
   the kernel on (saturated summaries + memoized foreign floors) and
   off (full per-rule scan) — at every point of randomized commit
   sequences mixing stores, loads, CAS-failure loads, RMWs, fences and
   arena mark/restore cycles; and a kernel-on exploration must produce
   bit-identical graph sets, bug lists and verdicts to a kernel-off one
   across the whole registry, serial and under [-j2]. *)

module E = C11.Execution
module A = C11.Action
module B = Structures.Benchmark
module Ords = Structures.Ords
open C11.Memory_order

let sorted_ids l = List.sort Stdlib.compare (List.map (fun (a : A.t) -> a.A.id) l)

let window_ids x ~tid ~mo ~loc =
  let n = E.read_window x ~tid ~mo ~loc in
  List.sort Stdlib.compare (List.init n (fun i -> (E.read_candidate x ~loc i).A.id))

(* ------------------------------------------------------------------ *)
(* Randomized window differential *)

let store_mos = [| Relaxed; Release; Seq_cst |]
let load_mos = [| Relaxed; Acquire; Seq_cst |]
let rmw_mos = [| Relaxed; Acquire; Release; Acq_rel; Seq_cst |]
let fence_mos = [| Acquire; Release; Acq_rel; Seq_cst |]

(* Every query surface agrees with the oracle, for both executions, and
   the two executions agree with each other. *)
let check_agree ~where xk xr ~nthreads locs =
  for tid = 0 to nthreads - 1 do
    Array.iter
      (fun mo ->
        Array.iter
          (fun loc ->
            let oracle = sorted_ids (E.read_candidates_ref xk ~tid ~mo ~loc) in
            let check what got =
              Alcotest.(check (list int)) (Printf.sprintf "%s: %s = oracle" where what) oracle got
            in
            check "kernel-on candidates" (sorted_ids (E.read_candidates xk ~tid ~mo ~loc));
            check "kernel-on window" (window_ids xk ~tid ~mo ~loc);
            check "kernel-off oracle" (sorted_ids (E.read_candidates_ref xr ~tid ~mo ~loc));
            check "kernel-off candidates" (sorted_ids (E.read_candidates xr ~tid ~mo ~loc));
            check "kernel-off window" (window_ids xr ~tid ~mo ~loc))
          locs)
      load_mos
  done

let test_window_differential () =
  let rng = Random.State.make [| 0x9F; 0xC11; 9 |] in
  for round = 1 to 40 do
    let xk = E.create () in
    let xr = E.create ~rf_kernel:false () in
    let both f =
      f xk;
      f xr
    in
    let nthreads = 1 + Random.State.int rng 3 in
    for child = 1 to nthreads - 1 do
      both (fun x ->
          ignore (E.commit_create x ~tid:0 ~child);
          ignore (E.commit_start x ~tid:child))
    done;
    let nlocs = 1 + Random.State.int rng 2 in
    let locs =
      Array.init nlocs (fun _ ->
          let lk = E.alloc xk ~tid:0 ~count:1 ~init:(Some 0) in
          let lr = E.alloc xr ~tid:0 ~count:1 ~init:(Some 0) in
          Alcotest.(check int) "lockstep alloc" lk lr;
          lk)
    in
    let marks = ref [] in
    let value = ref 1 in
    for step = 1 to 16 + Random.State.int rng 12 do
      let where = Printf.sprintf "round %d step %d" round step in
      check_agree ~where xk xr ~nthreads locs;
      let tid = Random.State.int rng nthreads in
      let loc = locs.(Random.State.int rng nlocs) in
      match Random.State.int rng 12 with
      | 0 | 1 | 2 ->
        let mo = store_mos.(Random.State.int rng (Array.length store_mos)) in
        let v = !value in
        incr value;
        both (fun x -> ignore (E.commit_store x ~tid ~mo ~loc ~value:v ()))
      | 3 | 4 | 5 -> (
        let mo = load_mos.(Random.State.int rng (Array.length load_mos)) in
        match E.read_candidates xk ~tid ~mo ~loc with
        | [] -> ()
        | cs ->
          let w = List.nth cs (Random.State.int rng (List.length cs)) in
          ignore (E.commit_load xk ~tid ~mo ~loc ~rf:(Some w) ());
          ignore (E.commit_load xr ~tid ~mo ~loc ~rf:(Some (E.action xr w.A.id)) ()))
      | 6 | 7 -> (
        (* the CAS-failure path: scan the window under the failure
           ordering, commit a load from a non-newest candidate *)
        let mo = load_mos.(Random.State.int rng (Array.length load_mos)) in
        match E.read_window xk ~tid ~mo ~loc with
        | 0 -> ()
        | n ->
          let w = E.read_candidate xk ~loc (Random.State.int rng n) in
          ignore (E.commit_load xk ~tid ~mo ~loc ~rf:(Some w) ());
          ignore (E.commit_load xr ~tid ~mo ~loc ~rf:(Some (E.action xr w.A.id)) ()))
      | 8 | 9 ->
        let mo = rmw_mos.(Random.State.int rng (Array.length rmw_mos)) in
        let v = !value in
        incr value;
        both (fun x -> ignore (E.commit_rmw x ~tid ~mo ~loc ~value:v ()))
      | 10 ->
        let mo = fence_mos.(Random.State.int rng (Array.length fence_mos)) in
        both (fun x -> ignore (E.commit_fence x ~tid ~mo))
      | _ -> (
        (* arena backtracking: the kernel columns, memo eras and the
           live-SC-fence count must all rewind with the graph *)
        match Random.State.int rng 2, !marks with
        | 0, _ | _, [] -> marks := (E.mark xk, E.mark xr) :: !marks
        | _, (mk, mr) :: rest ->
          E.restore xk mk;
          E.restore xr mr;
          marks := rest)
    done;
    check_agree ~where:(Printf.sprintf "round %d end" round) xk xr ~nthreads locs
  done

(* ------------------------------------------------------------------ *)
(* Explorer equivalence over the registry *)

let cap = 30_000
let checker = Cdsspec.Checker.default_config

let with_kernel (b : B.t) on =
  { b with B.scheduler = { b.B.scheduler with Mc.Scheduler.rf_kernel = on } }

let runk ?(prune = true) ?(cap = cap) b on jobs ords t =
  fst
    (Store.explore_checked ~checker ~use_cache:true ~max_execs:(Some cap) ~jobs ~prune
       ~engine:`Arena (with_kernel b on) ~ords t)

let keys (r : Mc.Explorer.result) = List.map Mc.Bug.key r.bugs

let test_explorer_equivalence () =
  let fast_total = ref 0 in
  List.iter
    (fun (b : B.t) ->
      let ords = Ords.default b.B.sites in
      let t = List.hd b.B.tests in
      let where = b.B.name ^ "/" ^ t.B.test_name in
      let on = runk b true 1 ords t in
      let off = runk b false 1 ords t in
      Alcotest.(check bool) (where ^ ": graph sets identical") true (on.graphs = off.graphs);
      Alcotest.(check int)
        (where ^ ": distinct graphs")
        off.stats.distinct_graphs on.stats.distinct_graphs;
      Alcotest.(check int) (where ^ ": explored") off.stats.explored on.stats.explored;
      Alcotest.(check (list string)) (where ^ ": bug keys") (keys off) (keys on);
      Alcotest.(check (option string))
        (where ^ ": first buggy trace")
        off.first_buggy_trace on.first_buggy_trace;
      (* the pre-replay pruning ledger is mode-independent: both sides
         answer the same queries and exclude the same stores *)
      Alcotest.(check int) (where ^ ": rf queries") off.stats.rf_queries on.stats.rf_queries;
      Alcotest.(check int) (where ^ ": rf rejected") off.stats.rf_rejected on.stats.rf_rejected;
      Alcotest.(check int) (where ^ ": kernel-off takes no fast path") 0 off.stats.rf_fast;
      fast_total := !fast_total + on.stats.rf_fast;
      (* parallel runs in both modes agree with the serial pair *)
      if not on.stats.truncated then
        List.iter
          (fun kernel ->
            let r = runk b kernel 2 ords t in
            let leg = Printf.sprintf "%s: -j2 kernel %s" where (if kernel then "on" else "off") in
            Alcotest.(check bool) (leg ^ " graph sets identical") true (on.graphs = r.graphs);
            Alcotest.(check (list string)) (leg ^ " bug keys") (keys on) (keys r))
          [ true; false ])
    Structures.Registry.exhaustive;
  Alcotest.(check bool)
    (Printf.sprintf "fast path not vacuous (%d memo hits)" !fast_total)
    true (!fast_total > 0)

(* Spin-heavy rows with pruning off: long per-location histories
   rescanned on every read, the regime the kernel's summaries target.
   Serial DFS with a cap truncates deterministically, so the capped
   prefixes compare exactly. *)
let test_spin_rows () =
  List.iter
    (fun (name, test_name, loop_bound) ->
      let b = Option.get (Structures.Registry.find name) in
      let b =
        match loop_bound with
        | None -> b
        | Some loop_bound -> { b with B.scheduler = { b.B.scheduler with loop_bound } }
      in
      let t = List.find (fun (t : B.test) -> t.B.test_name = test_name) b.B.tests in
      let ords = Ords.default b.B.sites in
      let where = name ^ "/" ^ test_name in
      let on = runk ~prune:false ~cap:20_000 b true 1 ords t in
      let off = runk ~prune:false ~cap:20_000 b false 1 ords t in
      Alcotest.(check int) (where ^ ": explored") off.stats.explored on.stats.explored;
      Alcotest.(check bool) (where ^ ": graph sets identical") true (on.graphs = off.graphs);
      Alcotest.(check (list string)) (where ^ ": bug keys") (keys off) (keys on);
      Alcotest.(check int) (where ^ ": rf queries") off.stats.rf_queries on.stats.rf_queries;
      Alcotest.(check int) (where ^ ": rf rejected") off.stats.rf_rejected on.stats.rf_rejected)
    [ ("MCS Lock", "two-threads", Some 48); ("Chase-Lev Deque", "small", None) ]

let () =
  Alcotest.run "rf-kernel"
    [
      ( "window",
        [ Alcotest.test_case "randomized window differential" `Quick test_window_differential ] );
      ( "explorer",
        [
          Alcotest.test_case "kernel on/off equivalence" `Slow test_explorer_equivalence;
          Alcotest.test_case "spin rows, prune off" `Slow test_spin_rows;
        ] );
    ]
