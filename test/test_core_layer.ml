(* Tests for the cdsspec core layer: sequential state helpers, method-call
   extraction from annotation streams, the ordering relation, and the
   checking semantics of Definitions 1-6. *)

module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
module Call = Cdsspec.Call
module Il = Cdsspec.Seq_state.Int_list
module Im = Cdsspec.Seq_state.Int_map
open C11.Memory_order

(* --------------------------- seq state --------------------------- *)

let test_int_list () =
  let l = Il.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "front" (Some 1) (Il.front l);
  Alcotest.(check (option int)) "back" (Some 3) (Il.back l);
  Alcotest.(check (list int)) "push_back" [ 1; 2; 3; 4 ] (Il.to_list (Il.push_back 4 l));
  Alcotest.(check (list int)) "push_front" [ 0; 1; 2; 3 ] (Il.to_list (Il.push_front 0 l));
  Alcotest.(check (list int)) "pop_front" [ 2; 3 ] (Il.to_list (Il.pop_front l));
  Alcotest.(check (list int)) "pop_back" [ 1; 2 ] (Il.to_list (Il.pop_back l));
  Alcotest.(check (list int)) "remove middle" [ 1; 3 ] (Il.to_list (Il.remove 2 l));
  Alcotest.(check (list int)) "remove absent" [ 1; 2; 3 ] (Il.to_list (Il.remove 9 l));
  Alcotest.(check bool) "mem" true (Il.mem 2 l);
  Alcotest.(check bool) "empty" true (Il.is_empty Il.empty);
  Alcotest.(check (option int)) "front of empty" None (Il.front Il.empty);
  Alcotest.(check (list int)) "pop empty" [] (Il.to_list (Il.pop_front Il.empty))

let int_list_arb = QCheck.(list_of_size (Gen.int_bound 8) small_int)

let prop_push_pop_front =
  QCheck.Test.make ~name:"push_front then pop_front is identity" ~count:200 int_list_arb
    (fun l ->
      let il = Il.of_list l in
      Il.to_list (Il.pop_front (Il.push_front 42 il)) = l)

let prop_push_back_back =
  QCheck.Test.make ~name:"back of push_back" ~count:200 int_list_arb (fun l ->
      Il.back (Il.push_back 42 (Il.of_list l)) = Some 42)

let prop_fifo_order =
  QCheck.Test.make ~name:"push_back stream dequeues in order" ~count:200 int_list_arb (fun l ->
      let il = List.fold_left (fun acc v -> Il.push_back v acc) Il.empty l in
      let rec pop_all acc il =
        match Il.front il with
        | None -> List.rev acc
        | Some v -> pop_all (v :: acc) (Il.pop_front il)
      in
      pop_all [] il = l)

let test_int_map () =
  let m = Im.put ~key:1 ~value:10 (Im.put ~key:2 ~value:20 Im.empty) in
  Alcotest.(check (option int)) "get" (Some 10) (Im.get ~key:1 m);
  Alcotest.(check int) "get_or hit" 20 (Im.get_or 0 ~key:2 m);
  Alcotest.(check int) "get_or miss" 0 (Im.get_or 0 ~key:3 m);
  Alcotest.(check int) "cardinal" 2 (Im.cardinal m);
  Alcotest.(check (option int)) "overwrite" (Some 11) (Im.get ~key:1 (Im.put ~key:1 ~value:11 m));
  Alcotest.(check (option int)) "remove" None (Im.get ~key:1 (Im.remove ~key:1 m))

(* -------------------- running tiny programs ---------------------- *)

(* Capture one feasible execution (with its annotations) of a program. *)
let one_execution program =
  let captured = ref None in
  ignore
    (Mc.Explorer.explore
       ~config:{ Mc.Explorer.default_config with max_executions = Some 1 }
       ~on_feasible:(fun exec annots ->
         captured := Some (exec, annots);
         [])
       program);
  match !captured with
  | Some x -> x
  | None -> Alcotest.fail "program had no feasible execution"

let calls_of program =
  let exec, annots = one_execution program in
  (exec, Cdsspec.History.calls_of_annots annots)

(* ---------------------- call extraction -------------------------- *)

let test_calls_basic () =
  let _, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"put" ~args:[ 7 ] (fun () ->
            P.store Relaxed x 7;
            A.op_define ());
        ignore
          (A.api_fun ~name:"get" ~args:[] (fun () ->
               let v = P.load Relaxed x in
               A.op_define ();
               v)))
  in
  match calls with
  | [ put; get ] ->
    Alcotest.(check string) "name" "put" put.Call.name;
    Alcotest.(check (list int)) "args" [ 7 ] put.args;
    Alcotest.(check (option int)) "void ret" None put.ret;
    Alcotest.(check int) "one op" 1 (List.length put.ordering_points);
    Alcotest.(check (option int)) "get ret" (Some 7) get.Call.ret;
    Alcotest.(check int) "ids dense" 1 get.id
  | l -> Alcotest.failf "expected 2 calls, got %d" (List.length l)

let test_calls_nested () =
  (* the inner api_call is an internal call: only the outermost counts,
     and ordering points inside the nested call accrue to it *)
  let _, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"outer" ~args:[] (fun () ->
            A.api_proc ~name:"inner" ~args:[] (fun () ->
                P.store Relaxed x 1;
                A.op_define ())))
  in
  match calls with
  | [ c ] ->
    Alcotest.(check string) "outermost only" "outer" c.Call.name;
    Alcotest.(check int) "inner op attributed" 1 (List.length c.ordering_points)
  | l -> Alcotest.failf "expected 1 call, got %d" (List.length l)

let test_calls_op_clear () =
  let _, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.op_define ();
            P.store Relaxed x 2;
            A.op_clear ();
            P.store Relaxed x 3;
            A.op_define ()))
  in
  match calls with
  | [ c ] -> Alcotest.(check int) "only post-clear op" 1 (List.length c.Call.ordering_points)
  | _ -> Alcotest.fail "expected 1 call"

let test_calls_potential_op () =
  let _, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.potential_op "maybe";
            P.store Relaxed x 2;
            A.potential_op "other";
            A.op_check "maybe"))
  in
  match calls with
  | [ c ] ->
    (* only the "maybe" potential op is confirmed *)
    Alcotest.(check int) "confirmed op" 1 (List.length c.Call.ordering_points)
  | _ -> Alcotest.fail "expected 1 call"

let test_calls_unchecked_potential_op () =
  let _, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.potential_op "maybe"))
  in
  match calls with
  | [ c ] -> Alcotest.(check int) "unconfirmed -> no op" 0 (List.length c.Call.ordering_points)
  | _ -> Alcotest.fail "expected 1 call"

(* --------------------- ordering relation ------------------------- *)

let test_ordering_same_thread () =
  let exec, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"a" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.op_define ());
        A.api_proc ~name:"b" ~args:[] (fun () ->
            P.store Relaxed x 2;
            A.op_define ()))
  in
  let r = Cdsspec.History.ordering_relation exec calls in
  Alcotest.(check bool) "sequenced-before orders calls" true (C11.Relation.reachable r 0 1);
  Alcotest.(check bool) "no reverse edge" false (C11.Relation.reachable r 1 0);
  Alcotest.(check int) "no unordered pairs" 0
    (List.length (Cdsspec.History.unordered_pairs r calls))

let test_ordering_concurrent () =
  (* two relaxed writers in different threads: unordered *)
  let program () =
    let x = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          A.api_proc ~name:"a" ~args:[] (fun () ->
              P.store Relaxed x 1;
              A.op_define ()))
    in
    let t2 =
      P.spawn (fun () ->
          A.api_proc ~name:"b" ~args:[] (fun () ->
              P.store Relaxed x 2;
              A.op_define ()))
    in
    P.join t1;
    P.join t2
  in
  let exec, calls = calls_of program in
  let r = Cdsspec.History.ordering_relation exec calls in
  Alcotest.(check int) "one unordered pair" 1
    (List.length (Cdsspec.History.unordered_pairs r calls));
  match calls with
  | [ a; b ] ->
    Alcotest.(check int) "a concurrent with b" 1
      (List.length (Cdsspec.History.concurrent r calls a));
    Alcotest.(check int) "b concurrent with a" 1
      (List.length (Cdsspec.History.concurrent r calls b))
  | _ -> Alcotest.fail "expected 2 calls"

(* Only the SC order orders these two calls: their ordering points are
   seq_cst stores to different locations by threads that never
   synchronize, so neither happens before the other, and ⊑r gets
   exactly one edge between them, from the earlier store to the later
   one in commit (= SC) order. *)
let test_ordering_sc_only () =
  let module E = C11.Execution in
  let x = E.create () in
  let a = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  let b = E.alloc x ~tid:0 ~count:1 ~init:(Some 0) in
  ignore (E.commit_create x ~tid:0 ~child:1);
  ignore (E.commit_start x ~tid:1);
  let w1, _ = E.commit_store x ~tid:0 ~mo:Seq_cst ~loc:a ~value:1 () in
  let w2, _ = E.commit_store x ~tid:1 ~mo:Seq_cst ~loc:b ~value:1 () in
  Alcotest.(check bool) "no hb between sc stores" false (E.happens_before x w1.id w2.id);
  let call id tid (op : C11.Action.t) =
    {
      Call.id;
      tid;
      obj = 0;
      name = "m";
      args = [];
      ret = None;
      ordering_points = [ op.id ];
      begin_index = 0;
      end_index = 0;
    }
  in
  let r = Cdsspec.History.ordering_relation x [ call 0 0 w1; call 1 1 w2 ] in
  Alcotest.(check bool) "but sc-ordered" true (C11.Relation.has_edge r 0 1);
  Alcotest.(check bool) "not symmetric" false (C11.Relation.has_edge r 1 0)

let test_justifying_subhistories () =
  let exec, calls =
    calls_of (fun () ->
        let x = P.malloc ~init:0 1 in
        let m name =
          A.api_proc ~name ~args:[] (fun () ->
              P.store Relaxed x 1;
              A.op_define ())
        in
        m "a";
        m "b";
        m "c")
  in
  let r = Cdsspec.History.ordering_relation exec calls in
  let c = List.nth calls 2 in
  let subs, truncated = Oracle.Checker.justifying_subhistories r calls c in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "chain has one linearization" 1 (List.length subs);
  Alcotest.(check (list string)) "prefix then m" [ "a"; "b"; "c" ]
    (List.map (fun (x : Call.t) -> x.name) (List.hd subs))

(* ------------------------ checker semantics ---------------------- *)

(* A deterministic register spec: read must return the current value in
   EVERY history (Definition 6's forall-histories). *)
let strict_register_spec =
  let write_spec =
    {
      Spec.default_method with
      side_effect = Some (fun _st (info : Spec.info) -> (Call.arg info.call 0, None));
    }
  in
  let read_spec =
    {
      Spec.default_method with
      side_effect = Some (fun st _ -> (st, Some st));
      postcondition =
        Some (fun _st (info : Spec.info) ~s_ret -> Some (Call.ret_or min_int info.call) = s_ret);
    }
  in
  Spec.Packed
    {
      name = "strict-register";
      initial = (fun () -> 0);
      methods = [ ("write", write_spec); ("read", read_spec) ];
      admissibility = [];
      accounting =
        { spec_lines = 0; ordering_point_lines = 0; admissibility_lines = 0; api_methods = 2 };
    }

let register_program () =
  let x = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        A.api_proc ~name:"write" ~args:[ 1 ] (fun () ->
            P.store Relaxed x 1;
            A.op_define ()))
  in
  let t2 =
    P.spawn (fun () ->
        ignore
          (A.api_fun ~name:"read" ~args:[] (fun () ->
               let v = P.load Relaxed x in
               A.op_define ();
               v)))
  in
  P.join t1;
  P.join t2

let explore_with_spec spec program =
  Mc.Explorer.explore ~on_feasible:(Cdsspec.Checker.hook spec) program

let test_forall_histories_rejects () =
  (* concurrent write/read: some history orders the write first, where a
     read of 0 fails the deterministic postcondition *)
  let r = explore_with_spec strict_register_spec register_program in
  Alcotest.(check bool) "deterministic spec violated" true
    (List.exists (function Mc.Bug.Spec_violation _ -> true | _ -> false) r.bugs)

let test_justification_accepts () =
  (* the proper non-deterministic register spec accepts the same program *)
  let r = explore_with_spec Structures.Atomic_register.spec register_program in
  Alcotest.(check (list string)) "no violations" [] (List.map Mc.Bug.key r.bugs)

let test_admissibility_violation () =
  let rule = { Spec.first = "write"; second = "read"; requires_order = (fun _ _ -> true) } in
  let spec =
    match Structures.Atomic_register.spec with
    | Spec.Packed s -> Spec.Packed { s with admissibility = [ rule ] }
  in
  let r = explore_with_spec spec register_program in
  Alcotest.(check bool) "admissibility violation reported" true
    (List.exists
       (function Mc.Bug.Spec_violation { kind; _ } -> kind = "admissibility" | _ -> false)
       r.bugs)

let test_cyclic_ordering_detected () =
  (* overlapping calls with multiple seq_cst ordering points can induce a
     cyclic relation; the checker reports it rather than looping *)
  let program () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          A.api_proc ~name:"a" ~args:[] (fun () ->
              P.store Seq_cst x 1;
              A.op_define ();
              P.store Seq_cst x 2;
              A.op_define ()))
    in
    let t2 =
      P.spawn (fun () ->
          A.api_proc ~name:"b" ~args:[] (fun () ->
              P.store Seq_cst y 1;
              A.op_define ();
              P.store Seq_cst y 2;
              A.op_define ()))
    in
    P.join t1;
    P.join t2
  in
  let r = explore_with_spec strict_register_spec program in
  Alcotest.(check bool) "cycle reported in some execution" true
    (List.exists
       (function Mc.Bug.Spec_violation { kind; _ } -> kind = "cyclic-ordering" | _ -> false)
       r.bugs)

let test_precondition_failure () =
  (* unlock with no lock: precondition fails in the (only) history *)
  let spec =
    Structures.Ticket_lock.mutex_spec ~name:"m" ~lock_names:[ "lock" ] ~unlock_names:[ "unlock" ]
      ()
  in
  let program () =
    let x = P.malloc ~init:0 1 in
    A.api_proc ~name:"unlock" ~args:[] (fun () ->
        P.store Relaxed x 0;
        A.op_define ())
  in
  let r = explore_with_spec spec program in
  Alcotest.(check bool) "precondition failure reported" true
    (List.exists (function Mc.Bug.Spec_violation _ -> true | _ -> false) r.bugs)

let test_objects_checked_independently () =
  (* two registers: a write to one must not affect the other's checking *)
  let program () =
    let r1 = Structures.Atomic_register.create () in
    let r2 = Structures.Atomic_register.create () in
    let ords = Structures.Ords.default Structures.Atomic_register.sites in
    Structures.Atomic_register.write ords r1 5;
    let v = Structures.Atomic_register.read ords r2 in
    ignore v
  in
  let r = explore_with_spec Structures.Atomic_register.spec program in
  Alcotest.(check (list string)) "no cross-object pollution" [] (List.map Mc.Bug.key r.bugs)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core-layer"
    [
      ( "seq-state",
        [
          Alcotest.test_case "int list" `Quick test_int_list;
          Alcotest.test_case "int map" `Quick test_int_map;
          qt prop_push_pop_front;
          qt prop_push_back_back;
          qt prop_fifo_order;
        ] );
      ( "calls",
        [
          Alcotest.test_case "basic" `Quick test_calls_basic;
          Alcotest.test_case "nested" `Quick test_calls_nested;
          Alcotest.test_case "op_clear" `Quick test_calls_op_clear;
          Alcotest.test_case "potential op confirmed" `Quick test_calls_potential_op;
          Alcotest.test_case "potential op unconfirmed" `Quick test_calls_unchecked_potential_op;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "same thread" `Quick test_ordering_same_thread;
          Alcotest.test_case "concurrent" `Quick test_ordering_concurrent;
          Alcotest.test_case "sc order alone" `Quick test_ordering_sc_only;
          Alcotest.test_case "justifying subhistories" `Quick test_justifying_subhistories;
        ] );
      ( "checker",
        [
          Alcotest.test_case "forall histories rejects" `Quick test_forall_histories_rejects;
          Alcotest.test_case "justification accepts" `Quick test_justification_accepts;
          Alcotest.test_case "admissibility" `Quick test_admissibility_violation;
          Alcotest.test_case "cyclic ordering" `Quick test_cyclic_ordering_detected;
          Alcotest.test_case "precondition" `Quick test_precondition_failure;
          Alcotest.test_case "object isolation" `Quick test_objects_checked_independently;
        ] );
    ]
