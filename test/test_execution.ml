(* White-box tests of the execution-graph layer: drive C11.Execution
   directly (no scheduler) and check candidate filtering, synchronization
   clocks, race detection and the poison model. *)

module E = C11.Execution
module A = C11.Action
open C11.Memory_order

let ids actions = List.map (fun (a : A.t) -> a.id) actions

(* The live read window as a newest-first list. *)
let candidates = Oracle.Read_floor.window

let test_alloc_and_init () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:2 ~init:(Some 7) in
  Alcotest.(check int) "two init actions" 2 (E.num_actions x);
  (match E.last_write x loc with
  | Some w -> Alcotest.(check (option int)) "init value" (Some 7) w.written_value
  | None -> Alcotest.fail "no init write");
  let loc2 = E.alloc x ~tid:0 ~count:1 ~init:None in
  Alcotest.(check bool) "distinct locations" true (loc2 <> loc && loc2 <> loc + 1)

(* Location 0 is the null pointer: no allocation may return it — not the
   first one of an execution, and not the first one after a restore
   rewinds past every allocation. *)
let test_alloc_never_null () =
  let x = E.create () in
  let m = E.mark x in
  let first = E.alloc x ~tid:0 ~count:1 ~init:None in
  Alcotest.(check bool) "first allocation is not null" true (first <> 0);
  let second = E.alloc x ~tid:0 ~count:2 ~init:(Some 0) in
  Alcotest.(check bool) "later allocations are not null" true (second <> 0 && second + 1 <> 0);
  E.restore x m;
  Alcotest.(check int) "restored allocator reuses the same base" first
    (E.alloc x ~tid:0 ~count:1 ~init:(Some 3))

let test_poison_reported () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:None in
  match candidates x ~tid:0 ~mo:Relaxed ~loc with
  | [ w ] ->
    let _, problems = E.commit_load x ~tid:0 ~mo:Relaxed ~loc ~rf:(Some w) () in
    Alcotest.(check bool) "uninit reported" true
      (List.exists (function E.Uninitialized_load _ -> true | _ -> false) problems)
  | l -> Alcotest.failf "expected 1 poison candidate, got %d" (List.length l)

let test_cowr_filters_candidates () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let w1, _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc ~value:1 () in
  let _w2, _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc ~value:2 () in
  (* thread 0 saw its own stores: only the newest is readable *)
  (match candidates x ~tid:0 ~mo:Relaxed ~loc with
  | [ w ] -> Alcotest.(check (option int)) "own newest only" (Some 2) w.written_value
  | l -> Alcotest.failf "expected 1 candidate for writer, got %d" (List.length l));
  ignore w1

let test_unrelated_thread_sees_all () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  (* tid 1 inherits the init write via create, then tid 0 stores more *)
  let _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc ~value:1 () in
  let _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc ~value:2 () in
  let candidates = candidates x ~tid:1 ~mo:Relaxed ~loc in
  Alcotest.(check int) "init + both stores readable" 3 (List.length candidates)

let test_sc_load_restricted () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  let _ = E.commit_store x ~tid:0 ~mo:Seq_cst ~loc ~value:1 () in
  (* a relaxed load by tid 1 may still read the init... *)
  Alcotest.(check int) "relaxed sees both" 2
    (List.length (candidates x ~tid:1 ~mo:Relaxed ~loc));
  (* ...but a seq_cst load must read the latest seq_cst store *)
  match candidates x ~tid:1 ~mo:Seq_cst ~loc with
  | [ w ] -> Alcotest.(check (option int)) "sc store forced" (Some 1) w.written_value
  | l -> Alcotest.failf "expected 1 sc candidate, got %d" (List.length l)

let test_release_acquire_clock () =
  let x = E.create () in
  let data = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let flag = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  let d, _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc:data ~value:42 () in
  let f, _ = E.commit_store x ~tid:0 ~mo:Release ~loc:flag ~value:1 () in
  let l, _ = E.commit_load x ~tid:1 ~mo:Acquire ~loc:flag ~rf:(Some f) () in
  Alcotest.(check bool) "store hb acquire-load" true (E.happens_before x d.id l.id);
  (* now the data store is hb-visible: the stale init is filtered *)
  (match candidates x ~tid:1 ~mo:Relaxed ~loc:data with
  | [ w ] -> Alcotest.(check (option int)) "data forced" (Some 42) w.written_value
  | cand -> Alcotest.failf "expected 1 candidate, got %d" (List.length cand))

let test_relaxed_read_no_sw () =
  let x = E.create () in
  let data = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let flag = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  let d, _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc:data ~value:42 () in
  let f, _ = E.commit_store x ~tid:0 ~mo:Release ~loc:flag ~value:1 () in
  let l, _ = E.commit_load x ~tid:1 ~mo:Relaxed ~loc:flag ~rf:(Some f) () in
  Alcotest.(check bool) "no hb through relaxed load" false (E.happens_before x d.id l.id)

let test_race_detection_direct () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  let _, p1 = E.commit_na_store x ~tid:0 ~loc ~value:1 () in
  Alcotest.(check int) "no race on first store" 0 (List.length p1);
  let _, p2 = E.commit_na_load x ~tid:1 ~loc () in
  Alcotest.(check bool) "race on unordered na load" true
    (List.exists (function E.Data_race _ -> true | _ -> false) p2)

let test_rmw_reads_latest () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 5) in
  let _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc ~value:9 () in
  (match E.rmw_candidate x ~loc with
  | Some w -> Alcotest.(check (option int)) "latest" (Some 9) w.written_value
  | None -> Alcotest.fail "no candidate");
  let a, _ = E.commit_rmw x ~tid:0 ~mo:Acq_rel ~loc ~value:10 () in
  Alcotest.(check (option int)) "rmw read" (Some 9) a.read_value;
  Alcotest.(check (option int)) "rmw write" (Some 10) a.written_value

(* An RMW on a location with no writes at all must report the same clean
   uninitialized-access bug as a load with [rf = None] — not raise. The
   read half observes garbage (0, no rf edge); the write half is a real
   store later accesses can read. *)
let test_rmw_uninitialized () =
  let uninit p =
    List.exists (function E.Uninitialized_load _ -> true | _ -> false) p
  in
  let x = E.create () in
  (* loc 0 is the null pointer, which no allocation returns: zero
     stores, not even a poison write *)
  let loc = 0 in
  let m = E.mark x in
  let a, problems = E.commit_rmw x ~tid:0 ~mo:Acq_rel ~loc ~value:7 () in
  Alcotest.(check bool) "uninitialized access reported" true (uninit problems);
  Alcotest.(check bool) "no rf edge" true (a.rf = None);
  Alcotest.(check (option int)) "read half observes 0" (Some 0) a.read_value;
  Alcotest.(check (option int)) "write half committed" (Some 7) a.written_value;
  (* the write half is real: it is now the mo-maximal write *)
  (match E.rmw_candidate x ~loc with
  | Some w -> Alcotest.(check (option int)) "rmw value readable" (Some 7) w.written_value
  | None -> Alcotest.fail "rmw write half missing");
  (* a second RMW chains off it cleanly *)
  let b, p2 = E.commit_rmw x ~tid:0 ~mo:Acq_rel ~loc ~value:8 () in
  Alcotest.(check bool) "second rmw is clean" false (uninit p2);
  Alcotest.(check (option int)) "second rmw reads the first" (Some 7) b.read_value;
  (* restore rewinds the half-committed rmw without desync *)
  E.restore x m;
  Alcotest.(check bool) "restore rewinds to zero stores" true
    (E.rmw_candidate x ~loc = None);
  let c, p3 = E.commit_rmw x ~tid:0 ~mo:Acq_rel ~loc ~value:9 () in
  Alcotest.(check bool) "replayed rmw still reported" true (uninit p3);
  Alcotest.(check (option int)) "replayed write half" (Some 9) c.written_value;
  (* and an RMW reading an allocated-but-uninitialized (poison) cell is
     reported the same way, with a real rf edge to the poison write *)
  let ploc = E.alloc x ~tid:0 ~count:1 ~init:None in
  let d, p4 = E.commit_rmw x ~tid:0 ~mo:Acq_rel ~loc:ploc ~value:1 () in
  Alcotest.(check bool) "poison rmw reported" true (uninit p4);
  Alcotest.(check bool) "poison rmw has an rf edge" true (d.rf <> None)

let test_release_sequence_clock () =
  (* store-release by T0, RMW by T1, acquire load by T2 reading the RMW:
     T2 must know T0's pre-release writes *)
  let x = E.create () in
  let data = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let flag = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_create x ~tid:0 ~child:2);
  ignore (E.commit_start x ~tid:1);
  ignore (E.commit_start x ~tid:2);
  let d, _ = E.commit_store x ~tid:0 ~mo:Relaxed ~loc:data ~value:42 () in
  let _, _ = E.commit_store x ~tid:0 ~mo:Release ~loc:flag ~value:1 () in
  let rmw, _ = E.commit_rmw x ~tid:1 ~mo:Relaxed ~loc:flag ~value:2 () in
  let l, _ = E.commit_load x ~tid:2 ~mo:Acquire ~loc:flag ~rf:(Some rmw) () in
  Alcotest.(check bool) "release sequence carries hb" true (E.happens_before x d.id l.id)

(* ------------------ incremental rf-kernel differential ------------------ *)

(* The incremental coherence indices behind the read window must agree
   with the rescanning reference [Oracle.Read_floor.candidates] at every
   point of randomized commit sequences mixing stores, loads and RMWs
   across threads, locations and memory orders. Seeded, so failures
   replay. *)
let test_rf_kernel_differential () =
  let rng = Random.State.make [| 0xC11; 5 |] in
  let sorted_ids l = List.sort Stdlib.compare (ids l) in
  let store_mos = [| Relaxed; Release; Seq_cst |] in
  let load_mos = [| Relaxed; Acquire; Seq_cst |] in
  let rmw_mos = [| Relaxed; Acquire; Release; Acq_rel; Seq_cst |] in
  for round = 1 to 50 do
    let x = E.create () in
    let nthreads = 1 + Random.State.int rng 3 in
    for child = 1 to nthreads - 1 do
      ignore (E.commit_create x ~tid:0 ~child);
      ignore (E.commit_start x ~tid:child)
    done;
    let locs =
      Array.init
        (1 + Random.State.int rng 2)
        (fun _ -> E.alloc x ~tid:0 ~count:1 ~init:(Some 0))
    in
    let value = ref 1 in
    for step = 1 to 12 + Random.State.int rng 10 do
      (* differential: the kernel and the oracle agree for every
         (tid, mo, loc) before each commit mutates the indices *)
      for tid = 0 to nthreads - 1 do
        Array.iter
          (fun mo ->
            Array.iter
              (fun loc ->
                Alcotest.(check (list int))
                  (Printf.sprintf "round %d step %d: kernel = oracle" round step)
                  (sorted_ids (Oracle.Read_floor.candidates x ~tid ~mo ~loc))
                  (sorted_ids (candidates x ~tid ~mo ~loc)))
              locs)
          load_mos
      done;
      let tid = Random.State.int rng nthreads in
      let loc = locs.(Random.State.int rng (Array.length locs)) in
      match Random.State.int rng 3 with
      | 0 ->
        let mo = store_mos.(Random.State.int rng (Array.length store_mos)) in
        ignore (E.commit_store x ~tid ~mo ~loc ~value:!value ());
        incr value
      | 1 -> (
        let mo = load_mos.(Random.State.int rng (Array.length load_mos)) in
        match candidates x ~tid ~mo ~loc with
        | [] -> ()
        | cs ->
          let w = List.nth cs (Random.State.int rng (List.length cs)) in
          ignore (E.commit_load x ~tid ~mo ~loc ~rf:(Some w) ()))
      | _ ->
        let mo = rmw_mos.(Random.State.int rng (Array.length rmw_mos)) in
        ignore (E.commit_rmw x ~tid ~mo ~loc ~value:!value ());
        incr value
    done
  done

let test_dot_renders () =
  let x = E.create () in
  let loc = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let w, _ = E.commit_store x ~tid:0 ~mo:Release ~loc ~value:1 () in
  let _, _ = E.commit_load x ~tid:0 ~mo:Acquire ~loc ~rf:(Some w) () in
  let dot = C11.Dot.render x in
  Alcotest.(check bool) "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has rf edge" true (contains dot "rf")

let () =
  Alcotest.run "execution"
    [
      ( "graph",
        [
          Alcotest.test_case "alloc and init" `Quick test_alloc_and_init;
          Alcotest.test_case "alloc never null" `Quick test_alloc_never_null;
          Alcotest.test_case "poison" `Quick test_poison_reported;
          Alcotest.test_case "CoWR filter" `Quick test_cowr_filters_candidates;
          Alcotest.test_case "unrelated sees all" `Quick test_unrelated_thread_sees_all;
          Alcotest.test_case "sc load restricted" `Quick test_sc_load_restricted;
          Alcotest.test_case "release/acquire clock" `Quick test_release_acquire_clock;
          Alcotest.test_case "relaxed read no sw" `Quick test_relaxed_read_no_sw;
          Alcotest.test_case "race detection" `Quick test_race_detection_direct;
          Alcotest.test_case "rmw reads latest" `Quick test_rmw_reads_latest;
          Alcotest.test_case "rmw uninitialized" `Quick test_rmw_uninitialized;
          Alcotest.test_case "release sequence clock" `Quick test_release_sequence_clock;
          Alcotest.test_case "rf kernel differential" `Quick test_rf_kernel_differential;
          Alcotest.test_case "dot renders" `Quick test_dot_renders;
        ] );
    ]
