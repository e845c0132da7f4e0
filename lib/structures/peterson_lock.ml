module P = Mc.Program
module A = Cdsspec.Annotations
open C11.Memory_order

(* flag.(0), flag.(1), turn; plus the critical-section data cell. *)
type t = { flag0 : P.loc; flag1 : P.loc; turn : P.loc; data : P.loc }

let sites =
  [
    Ords.site "lock_store_flag" For_store Seq_cst;
    Ords.site "lock_store_turn" For_store Seq_cst;
    Ords.site "lock_load_otherflag" For_load Seq_cst;
    Ords.site "lock_load_turn" For_load Seq_cst;
    Ords.site "unlock_store_flag" For_store Seq_cst;
  ]

let create () =
  let flag0 = P.malloc 1 in
  let flag1 = P.malloc 1 in
  let turn = P.malloc 1 in
  let data = P.malloc ~init:0 1 in
  P.store Relaxed flag0 0;
  P.store Relaxed flag1 0;
  P.store Relaxed turn 0;
  { flag0; flag1; turn; data }

let o = Ords.get

let my_flag t slot = if slot = 0 then t.flag0 else t.flag1
let other_flag t slot = if slot = 0 then t.flag1 else t.flag0

let lock ords t ~slot =
  A.api_proc ~obj:t.turn ~name:"lock" ~args:[ slot ] (fun () ->
      P.store ~site:"lock_store_flag" (o ords "lock_store_flag") (my_flag t slot) 1;
      P.store ~site:"lock_store_turn" (o ords "lock_store_turn") t.turn (1 - slot);
      (* The wait reads two locations, so it is a read-only retry loop
         rather than an await. *)
      P.retry (fun () ->
          let other =
            P.load ~site:"lock_load_otherflag" (o ords "lock_load_otherflag") (other_flag t slot)
          in
          A.op_clear_define ();
          if other <> 1 then Some ()
          else begin
            let turn = P.load ~site:"lock_load_turn" (o ords "lock_load_turn") t.turn in
            A.op_clear_define ();
            if turn = 1 - slot then None else Some ()
          end))

let unlock ords t ~slot =
  A.api_proc ~obj:t.turn ~name:"unlock" ~args:[ slot ] (fun () ->
      P.store ~site:"unlock_store_flag" (o ords "unlock_store_flag") (my_flag t slot) 0;
      A.op_define ())

let spec = Ticket_lock.mutex_spec ~name:"peterson-lock" ~lock_names:[ "lock" ] ~unlock_names:[ "unlock" ] ()

let critical_section (t : t) =
  let v = P.na_load t.data in
  P.na_store t.data (v + 1)

let test_two_threads ords () =
  let t = create () in
  let worker slot () =
    lock ords t ~slot;
    critical_section t;
    unlock ords t ~slot
  in
  let t1 = P.spawn (worker 0) in
  let t2 = P.spawn (worker 1) in
  P.join t1;
  P.join t2

let test_relock ords () =
  let t = create () in
  let t1 =
    P.spawn (fun () ->
        lock ords t ~slot:0;
        critical_section t;
        unlock ords t ~slot:0;
        lock ords t ~slot:0;
        critical_section t;
        unlock ords t ~slot:0)
  in
  let t2 =
    P.spawn (fun () ->
        lock ords t ~slot:1;
        critical_section t;
        unlock ords t ~slot:1)
  in
  P.join t1;
  P.join t2

let benchmark =
  Benchmark.make ~name:"Peterson Lock" ~spec ~sites
    [ ("two-threads", test_two_threads); ("relock", test_relock) ]
