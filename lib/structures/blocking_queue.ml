module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
module Il = Cdsspec.Seq_state.Int_list
open C11.Memory_order

(* Node layout: [next; data]. Pointers are location ids; 0 is NULL. *)
let f_next node = node
let f_data node = node + 1

type t = { tail : P.loc; head : P.loc }

let sites =
  [
    Ords.site "enq_load_tail" For_load Acquire;
    Ords.site "enq_cas_next" For_rmw Release;
    Ords.site "enq_store_tail" For_store Release;
    Ords.site "deq_load_head" For_load Acquire;
    Ords.site "deq_load_next" For_load Acquire;
    Ords.site "deq_cas_head" For_rmw Release;
  ]

let new_node value =
  let n = P.malloc 2 in
  P.store Relaxed (f_next n) 0;
  (* atomic field initialization *)
  P.na_store (f_data n) value;
  n

let create () =
  let dummy = new_node 0 in
  let tail = P.malloc 1 in
  let head = P.malloc 1 in
  P.store Relaxed tail dummy;
  P.store Relaxed head dummy;
  { tail; head }

let enq ords q value =
  A.api_proc ~obj:q.tail ~name:"enq" ~args:[ value ] (fun () ->
      let n = new_node value in
      P.retry (fun () ->
          let t = P.load ~site:"enq_load_tail" (Ords.get ords "enq_load_tail") q.tail in
          if
            P.cas ~site:"enq_cas_next" (Ords.get ords "enq_cas_next") (f_next t) ~expected:0
              ~desired:n
          then begin
            A.op_define ();
            P.store ~site:"enq_store_tail" (Ords.get ords "enq_store_tail") q.tail n;
            Some ()
          end
          else None))

let deq ords q =
  A.api_fun ~obj:q.tail ~name:"deq" ~args:[] (fun () ->
      P.retry (fun () ->
          let h = P.load ~site:"deq_load_head" (Ords.get ords "deq_load_head") q.head in
          let n = P.load ~site:"deq_load_next" (Ords.get ords "deq_load_next") (f_next h) in
          A.op_clear_define ();
          if n = 0 then Some (-1)
          else if
            P.cas ~site:"deq_cas_head" (Ords.get ords "deq_cas_head") q.head ~expected:h ~desired:n
          then Some (P.na_load (f_data n))
          else None))

(* Figure 6's specification, transliterated. *)
let spec =
  let enq_spec =
    {
      Spec.default_method with
      side_effect = Some (fun st (info : Spec.info) -> (Il.push_back (Cdsspec.Call.arg info.call 0) st, None));
    }
  in
  let deq_spec =
    {
      Spec.default_method with
      side_effect =
        Some
          (fun st (info : Spec.info) ->
            let s_ret = match Il.front st with None -> -1 | Some v -> v in
            let c_ret = Cdsspec.Call.ret_or (-1) info.call in
            let st = if s_ret <> -1 && c_ret <> -1 then Il.pop_front st else st in
            (st, Some s_ret));
      postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            let c_ret = Cdsspec.Call.ret_or (-1) info.call in
            c_ret = -1 || Some c_ret = s_ret);
      justifying_postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            let c_ret = Cdsspec.Call.ret_or (-1) info.call in
            if c_ret = -1 then s_ret = Some (-1) else true);
    }
  in
  Spec.Packed
    {
      name = "blocking-queue";
      initial = (fun () -> Il.empty);
      methods = [ ("enq", enq_spec); ("deq", deq_spec) ];
      admissibility = [];
      accounting =
        { spec_lines = 10; ordering_point_lines = 2; admissibility_lines = 0; api_methods = 2 };
    }

(* Unit tests (paper-scale: <= 3 threads). *)
let test_1enq_1deq ords () =
  let q = create () in
  let t1 = P.spawn (fun () -> enq ords q 1) in
  let t2 = P.spawn (fun () -> ignore (deq ords q)) in
  P.join t1;
  P.join t2

let test_2enq_2deq ords () =
  let q = create () in
  let t1 =
    P.spawn (fun () ->
        enq ords q 1;
        enq ords q 2)
  in
  let t2 =
    P.spawn (fun () ->
        ignore (deq ords q);
        ignore (deq ords q))
  in
  P.join t1;
  P.join t2

let test_racing_deqs ords () =
  let q = create () in
  enq ords q 1;
  enq ords q 2;
  let t1 = P.spawn (fun () -> ignore (deq ords q)) in
  let t2 = P.spawn (fun () -> ignore (deq ords q)) in
  P.join t1;
  P.join t2

let test_racing_enqs ords () =
  let q = create () in
  let t1 = P.spawn (fun () -> enq ords q 1) in
  let t2 = P.spawn (fun () -> enq ords q 2) in
  P.join t1;
  P.join t2;
  ignore (deq ords q)

let benchmark =
  Benchmark.make ~name:"Blocking Queue" ~spec ~sites
    [
      ("1enq-1deq", test_1enq_1deq);
      ("2enq-2deq", test_2enq_2deq);
      ("racing-deqs", test_racing_deqs);
      ("racing-enqs", test_racing_enqs);
    ]
