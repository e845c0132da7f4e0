module P = Mc.Program
module A = Cdsspec.Annotations
open C11.Memory_order

(* A node is one cell: its "busy" flag. The lock holds an atomic tail
   pointing at the most recent node; a handle remembers the node we
   installed (to release) and the predecessor node we waited on. *)
type t = { tail : P.loc; data : P.loc }

type handle = { mine : P.loc }

let sites =
  [
    Ords.site "lock_init_busy" For_store Relaxed;
    Ords.site "lock_xchg_tail" For_rmw Acq_rel;
    Ords.site "lock_spin_pred" For_load Acquire;
    Ords.site "unlock_store_busy" For_store Release;
  ]

let create () =
  let sentinel = P.malloc 1 in
  P.store Relaxed sentinel 0;
  (* sentinel: not busy *)
  let tail = P.malloc 1 in
  P.store Relaxed tail sentinel;
  let data = P.malloc ~init:0 1 in
  { tail; data }

let o = Ords.get

let lock ords l =
  A.api_call ~obj:l.tail ~name:"lock" ~args:[] (fun () ->
      let mine = P.malloc 1 in
      P.store ~site:"lock_init_busy" (o ords "lock_init_busy") mine 1;
      (* busy *)
      let pred = P.exchange ~site:"lock_xchg_tail" (o ords "lock_xchg_tail") l.tail mine in
      A.op_define ();
      ignore
        (P.await ~site:"lock_spin_pred" (o ords "lock_spin_pred") pred ~until:(fun busy -> busy <> 1));
      A.op_clear_define ();
      Some mine)
  |> function
  | Some mine -> { mine }
  | None -> assert false

let unlock ords l handle =
  ignore l;
  A.api_proc ~obj:l.tail ~name:"unlock" ~args:[] (fun () ->
      P.store ~site:"unlock_store_busy" (o ords "unlock_store_busy") handle.mine 0;
      A.op_define ())

let spec = Ticket_lock.mutex_spec ~name:"clh-lock" ~lock_names:[ "lock" ] ~unlock_names:[ "unlock" ] ()

let critical_section (l : t) =
  let v = P.na_load l.data in
  P.na_store l.data (v + 1)

let test_two_threads ords () =
  let l = create () in
  let worker () =
    let h = lock ords l in
    critical_section l;
    unlock ords l h
  in
  let t1 = P.spawn worker in
  let t2 = P.spawn worker in
  P.join t1;
  P.join t2

let test_handoff ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        let h = lock ords l in
        critical_section l;
        unlock ords l h;
        let h2 = lock ords l in
        critical_section l;
        unlock ords l h2)
  in
  let t2 =
    P.spawn (fun () ->
        let h = lock ords l in
        critical_section l;
        unlock ords l h)
  in
  P.join t1;
  P.join t2

let benchmark =
  Benchmark.make ~name:"CLH Lock" ~spec ~sites
    [ ("two-threads", test_two_threads); ("handoff", test_handoff) ]
