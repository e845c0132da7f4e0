module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
open C11.Memory_order

(* Version node layout: [field_a; field_b] (non-atomic). *)
let f_a node = node
let f_b node = node + 1

type t = { published : P.loc; active : P.loc; readers : int }

let sites =
  [
    Ords.site "reader_lock_store" For_store Seq_cst;
    Ords.site "read_load_published" For_load Seq_cst;
    Ords.site "reader_unlock_store" For_store Release;
    Ords.site "write_store_publish" For_store Seq_cst;
    Ords.site "sync_load_active" For_load Seq_cst;
  ]

let new_version v =
  let n = P.malloc 2 in
  P.na_store (f_a n) v;
  P.na_store (f_b n) v;
  n

let create ~readers =
  let published = P.malloc 1 in
  let active = P.malloc readers in
  P.store Relaxed published (new_version 0);
  for slot = 0 to readers - 1 do
    P.store Relaxed (active + slot) 0
  done;
  { published; active; readers }

let o = Ords.get

let read ords t ~slot =
  A.api_fun ~obj:t.published ~name:"read" ~args:[ slot ] (fun () ->
      P.store ~site:"reader_lock_store" (o ords "reader_lock_store") (t.active + slot) 1;
      let p = P.load ~site:"read_load_published" (o ords "read_load_published") t.published in
      A.op_define ();
      let a = P.na_load (f_a p) in
      let b = P.na_load (f_b p) in
      P.check (a = b) "rcu_grace: torn snapshot (reclaimed under a reader)";
      P.store ~site:"reader_unlock_store" (o ords "reader_unlock_store") (t.active + slot) 0;
      a)

let synchronize ords t =
  for slot = 0 to t.readers - 1 do
    ignore
      (P.await ~site:"sync_load_active" (o ords "sync_load_active") (t.active + slot)
         ~until:(fun v -> v <> 1))
  done

let write ords t v =
  A.api_proc ~obj:t.published ~name:"write" ~args:[ v ] (fun () ->
      let old = P.load Relaxed t.published in
      let n = new_version v in
      P.store ~site:"write_store_publish" (o ords "write_store_publish") t.published n;
      A.op_define ();
      synchronize ords t;
      (* reclaim: scribble distinct markers over the retired version *)
      P.na_store (f_a old) (-99);
      P.na_store (f_b old) (-98))

let spec =
  let write_spec =
    {
      Spec.default_method with
      side_effect = Some (fun _st (info : Spec.info) -> (Cdsspec.Call.arg info.call 0, None));
    }
  in
  let read_spec =
    {
      Spec.default_method with
      side_effect = Some (fun st _ -> (st, Some st));
      postcondition = Some (fun _st _info ~s_ret:_ -> true);
      justifying_postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            let c_ret = Cdsspec.Call.ret_or min_int info.call in
            Some c_ret = s_ret
            || List.exists
                 (fun (c : Cdsspec.Call.t) -> c.name = "write" && Cdsspec.Call.arg c 0 = c_ret)
                 info.concurrent);
    }
  in
  Spec.Packed
    {
      name = "rcu-grace";
      initial = (fun () -> 0);
      methods = [ ("write", write_spec); ("read", read_spec) ];
      admissibility =
        [ { Spec.first = "write"; second = "write"; requires_order = (fun _ _ -> true) } ];
      accounting =
        { spec_lines = 9; ordering_point_lines = 2; admissibility_lines = 1; api_methods = 2 };
    }

let test_1write_1read ords () =
  let t = create ~readers:1 in
  let w = P.spawn (fun () -> write ords t 1) in
  let r = P.spawn (fun () -> ignore (read ords t ~slot:0)) in
  P.join w;
  P.join r

let test_1write_2read ords () =
  let t = create ~readers:2 in
  let w = P.spawn (fun () -> write ords t 1) in
  let r0 = P.spawn (fun () -> ignore (read ords t ~slot:0)) in
  let r1 = P.spawn (fun () -> ignore (read ords t ~slot:1)) in
  P.join w;
  P.join r0;
  P.join r1

let test_reader_rereads ords () =
  let t = create ~readers:1 in
  let w = P.spawn (fun () -> write ords t 1) in
  let r =
    P.spawn (fun () ->
        ignore (read ords t ~slot:0);
        ignore (read ords t ~slot:0))
  in
  P.join w;
  P.join r

let benchmark =
  Benchmark.make ~name:"RCU Grace" ~spec ~sites
    [
      ("1write-1read", test_1write_1read);
      ("1write-2read", test_1write_2read);
      ("reader-rereads", test_reader_rereads);
    ]
