module P = Mc.Program
module A = Cdsspec.Annotations
open C11.Memory_order

(* Node layout: [next; locked]. *)
let f_next node = node
let f_locked node = node + 1

type t = { tail : P.loc; data : P.loc }

type node = P.loc

let sites =
  [
    Ords.site "lock_init_next" For_store Relaxed;
    Ords.site "lock_init_locked" For_store Relaxed;
    Ords.site "lock_xchg_tail" For_rmw Acq_rel;
    Ords.site "lock_store_prednext" For_store Release;
    Ords.site "lock_spin_locked" For_load Acquire;
    Ords.site "unlock_load_next" For_load Acquire;
    Ords.site "unlock_cas_tail" For_rmw Release;
    Ords.site "unlock_spin_next" For_load Acquire;
    Ords.site "unlock_store_locked" For_store Release;
  ]

let create () =
  let tail = P.malloc 1 in
  let data = P.malloc ~init:0 1 in
  P.store Relaxed tail 0;
  { tail; data }

let make_node () =
  let n = P.malloc 2 in
  P.store Relaxed (f_next n) 0;
  P.store Relaxed (f_locked n) 0;
  n

let o = Ords.get

let lock ords l me =
  A.api_proc ~obj:l.tail ~name:"lock" ~args:[] (fun () ->
      P.store ~site:"lock_init_next" (o ords "lock_init_next") (f_next me) 0;
      P.store ~site:"lock_init_locked" (o ords "lock_init_locked") (f_locked me) 1;
      let pred = P.exchange ~site:"lock_xchg_tail" (o ords "lock_xchg_tail") l.tail me in
      if pred = 0 then A.op_define () (* uncontended: the exchange is the OP *)
      else begin
        P.store ~site:"lock_store_prednext" (o ords "lock_store_prednext") (f_next pred) me;
        ignore
          (P.await ~site:"lock_spin_locked" (o ords "lock_spin_locked") (f_locked me)
             ~until:(fun locked -> locked <> 1));
        A.op_clear_define ()
      end)

let unlock ords l me =
  A.api_proc ~obj:l.tail ~name:"unlock" ~args:[] (fun () ->
      let next = P.load ~site:"unlock_load_next" (o ords "unlock_load_next") (f_next me) in
      let release_to next = P.store ~site:"unlock_store_locked" (o ords "unlock_store_locked") (f_locked next) 0 in
      if next = 0 then begin
        if P.cas ~site:"unlock_cas_tail" (o ords "unlock_cas_tail") l.tail ~expected:me ~desired:0
        then A.op_define () (* no successor: the CAS is the OP *)
        else begin
          (* a successor is linking itself in: wait for the pointer *)
          let next =
            P.await ~site:"unlock_spin_next" (o ords "unlock_spin_next") (f_next me)
              ~until:(fun n -> n <> 0)
          in
          release_to next;
          A.op_define ()
        end
      end
      else begin
        release_to next;
        A.op_define ()
      end)

let spec = Ticket_lock.mutex_spec ~name:"mcs-lock" ~lock_names:[ "lock" ] ~unlock_names:[ "unlock" ] ()

let critical_section (l : t) =
  let v = P.na_load l.data in
  P.na_store l.data (v + 1)

let test_two_threads ords () =
  let l = create () in
  let worker () =
    let me = make_node () in
    lock ords l me;
    critical_section l;
    unlock ords l me
  in
  let t1 = P.spawn worker in
  let t2 = P.spawn worker in
  P.join t1;
  P.join t2

let test_handoff ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        let me = make_node () in
        lock ords l me;
        critical_section l;
        unlock ords l me;
        let me2 = make_node () in
        lock ords l me2;
        critical_section l;
        unlock ords l me2)
  in
  let t2 =
    P.spawn (fun () ->
        let me = make_node () in
        lock ords l me;
        critical_section l;
        unlock ords l me)
  in
  P.join t1;
  P.join t2

let benchmark =
  Benchmark.make ~name:"MCS Lock" ~spec ~sites
    [ ("two-threads", test_two_threads); ("handoff", test_handoff) ]
