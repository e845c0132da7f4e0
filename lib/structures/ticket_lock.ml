module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
open C11.Memory_order

type t = { cur_ticket : P.loc; now_serving : P.loc; data : P.loc }

let sites =
  [
    Ords.site "lock_fa_ticket" For_rmw Relaxed;  (* intentionally relaxed *)
    Ords.site "lock_load_serving" For_load Acquire;
    Ords.site "unlock_load_serving" For_load Relaxed;
    Ords.site "unlock_store_serving" For_store Release;
  ]

let create () =
  let cur_ticket = P.malloc 1 in
  let now_serving = P.malloc 1 in
  let data = P.malloc ~init:0 1 in
  P.store Relaxed cur_ticket 0;
  P.store Relaxed now_serving 0;
  { cur_ticket; now_serving; data }

let lock ords l =
  A.api_proc ~obj:l.cur_ticket ~name:"lock" ~args:[] (fun () ->
      let my = P.fetch_add ~site:"lock_fa_ticket" (Ords.get ords "lock_fa_ticket") l.cur_ticket 1 in
      ignore
        (P.await ~site:"lock_load_serving" (Ords.get ords "lock_load_serving") l.now_serving
           ~until:(fun s -> s = my));
      A.op_clear_define ())

let unlock ords l =
  A.api_proc ~obj:l.cur_ticket ~name:"unlock" ~args:[] (fun () ->
      let s = P.load ~site:"unlock_load_serving" (Ords.get ords "unlock_load_serving") l.now_serving in
      P.store ~site:"unlock_store_serving" (Ords.get ords "unlock_store_serving") l.now_serving (s + 1);
      A.op_define ())

(* Critical-section body used by the unit tests: a non-atomic read-modify-
   write of shared data, so mutual-exclusion violations also surface as
   data races (a built-in check). *)
let critical_section l =
  let v = P.na_load l.data in
  P.na_store l.data (v + 1)

let mutex_spec ~name ?accounting ~lock_names ~unlock_names () =
  let accounting =
    match accounting with
    | Some a -> a
    | None ->
      {
        Spec.spec_lines = 6;
        ordering_point_lines = 2;
        admissibility_lines = 0;
        api_methods = List.length lock_names + List.length unlock_names;
      }
  in
  let lock_spec =
    {
      Spec.default_method with
      precondition = Some (fun held _ -> not held);
      side_effect = Some (fun _held _ -> (true, None));
    }
  in
  let unlock_spec =
    {
      Spec.default_method with
      precondition = Some (fun held _ -> held);
      side_effect = Some (fun _held _ -> (false, None));
    }
  in
  Spec.Packed
    {
      name;
      initial = (fun () -> false);
      methods =
        List.map (fun n -> (n, lock_spec)) lock_names
        @ List.map (fun n -> (n, unlock_spec)) unlock_names;
      admissibility = [];
      accounting;
    }

let spec = mutex_spec ~name:"ticket-lock" ~lock_names:[ "lock" ] ~unlock_names:[ "unlock" ] ()

let test_two_threads ords () =
  let l = create () in
  let worker () =
    lock ords l;
    critical_section l;
    unlock ords l
  in
  let t1 = P.spawn worker in
  let t2 = P.spawn worker in
  P.join t1;
  P.join t2

let test_reentry ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        lock ords l;
        critical_section l;
        unlock ords l;
        lock ords l;
        critical_section l;
        unlock ords l)
  in
  let t2 =
    P.spawn (fun () ->
        lock ords l;
        critical_section l;
        unlock ords l)
  in
  P.join t1;
  P.join t2

let benchmark =
  Benchmark.make ~name:"Ticket Lock" ~spec ~sites
    [ ("two-threads", test_two_threads); ("reentry", test_reentry) ]
