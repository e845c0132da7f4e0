module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
open C11.Memory_order

type t = { count : P.loc; sense : P.loc; participants : int }

let sites =
  [
    Ords.site "await_fs_count" For_rmw Acq_rel;
    Ords.site "await_store_sense" For_store Release;
    Ords.site "await_spin_sense" For_load Acquire;
  ]

let create participants =
  let count = P.malloc 1 in
  let sense = P.malloc 1 in
  P.store Relaxed count participants;
  P.store Relaxed sense 0;
  { count; sense; participants }

let o = Ords.get

let await ords b =
  A.api_fun ~obj:b.count ~name:"await" ~args:[] (fun () ->
      let prior = P.fetch_add ~site:"await_fs_count" (o ords "await_fs_count") b.count (-1) in
      A.op_define ();
      if prior = 1 then
        (* last arrival: release everyone *)
        P.store ~site:"await_store_sense" (o ords "await_store_sense") b.sense 1
      else begin
        ignore
          (P.await ~site:"await_spin_sense" (o ords "await_spin_sense") b.sense
             ~until:(fun s -> s <> 0))
      end;
      prior)

let spec_for participants =
  let await_spec =
    {
      Spec.default_method with
      (* the k-th arrival (in the ordering relation, which follows the
         acq_rel countdown chain) returns participants - k + 1 *)
      side_effect = Some (fun arrived _ -> (arrived + 1, Some (participants - arrived)));
      postcondition =
        Some
          (fun _ (info : Spec.info) ~s_ret ->
            Some (Cdsspec.Call.ret_or 0 info.call) = s_ret);
    }
  in
  Spec.Packed
    {
      name = "barrier";
      initial = (fun () -> 0);
      methods = [ ("await", await_spec) ];
      admissibility = [];
      accounting =
        { spec_lines = 4; ordering_point_lines = 1; admissibility_lines = 0; api_methods = 1 };
    }

let spec = spec_for 2

(* Each participant publishes data before the barrier and reads the
   other's after: the barrier's synchronization makes the non-atomic
   accesses race-free, so weakening any site surfaces as a data race. *)
let test_two_phases ords () =
  let b = create 2 in
  let d0 = P.malloc ~init:0 1 in
  let d1 = P.malloc ~init:0 1 in
  let worker mine theirs v () =
    P.na_store mine v;
    ignore (await ords b);
    ignore (P.na_load theirs)
  in
  let t0 = P.spawn (worker d0 d1 1) in
  let t1 = P.spawn (worker d1 d0 2) in
  P.join t0;
  P.join t1

let test_positions ords () =
  let b = create 2 in
  let t0 = P.spawn (fun () -> ignore (await ords b)) in
  let t1 = P.spawn (fun () -> ignore (await ords b)) in
  P.join t0;
  P.join t1

let benchmark =
  Benchmark.make ~name:"Barrier" ~spec ~sites
    [ ("two-phases", test_two_phases); ("positions", test_positions) ]
