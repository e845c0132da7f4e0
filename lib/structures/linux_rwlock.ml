module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
open C11.Memory_order

let rw_lock_bias = 0x100

type t = { lock : P.loc; data : P.loc }

let sites =
  [
    Ords.site "readlock_fs" For_rmw Acquire;
    Ords.site "readlock_restore" For_rmw Relaxed;
    Ords.site "readlock_spin" For_load Relaxed;
    Ords.site "readunlock_fa" For_rmw Release;
    Ords.site "writelock_fs" For_rmw Acquire;
    Ords.site "writelock_restore" For_rmw Relaxed;
    Ords.site "writelock_spin" For_load Relaxed;
    Ords.site "writeunlock_fa" For_rmw Release;
    Ords.site "trylock_fs" For_rmw Acquire;
    Ords.site "trylock_restore" For_rmw Relaxed;
  ]

let create () =
  let lock = P.malloc 1 in
  let data = P.malloc ~init:0 1 in
  P.store Relaxed lock rw_lock_bias;
  { lock; data }

let o = Ords.get

let read_lock ords l =
  A.api_proc ~obj:l.lock ~name:"read_lock" ~args:[] (fun () ->
      let rec attempt () =
        let prior = P.fetch_add ~site:"readlock_fs" (o ords "readlock_fs") l.lock (-1) in
        if prior > 0 then A.op_clear_define ()
        else begin
          ignore (P.fetch_add ~site:"readlock_restore" (o ords "readlock_restore") l.lock 1);
          ignore
            (P.await ~site:"readlock_spin" (o ords "readlock_spin") l.lock ~until:(fun v -> v > 0));
          attempt ()
        end
      in
      attempt ())

let read_unlock ords l =
  A.api_proc ~obj:l.lock ~name:"read_unlock" ~args:[] (fun () ->
      ignore (P.fetch_add ~site:"readunlock_fa" (o ords "readunlock_fa") l.lock 1);
      A.op_define ())

let write_lock ords l =
  A.api_proc ~obj:l.lock ~name:"write_lock" ~args:[] (fun () ->
      let rec attempt () =
        let prior =
          P.fetch_add ~site:"writelock_fs" (o ords "writelock_fs") l.lock (-rw_lock_bias)
        in
        if prior = rw_lock_bias then A.op_clear_define ()
        else begin
          ignore
            (P.fetch_add ~site:"writelock_restore" (o ords "writelock_restore") l.lock rw_lock_bias);
          ignore
            (P.await ~site:"writelock_spin" (o ords "writelock_spin") l.lock
               ~until:(fun v -> v = rw_lock_bias));
          attempt ()
        end
      in
      attempt ())

let write_unlock ords l =
  A.api_proc ~obj:l.lock ~name:"write_unlock" ~args:[] (fun () ->
      ignore (P.fetch_add ~site:"writeunlock_fa" (o ords "writeunlock_fa") l.lock rw_lock_bias);
      A.op_define ())

let write_trylock ords l =
  A.api_fun ~obj:l.lock ~name:"write_trylock" ~args:[] (fun () ->
      let prior = P.fetch_add ~site:"trylock_fs" (o ords "trylock_fs") l.lock (-rw_lock_bias) in
      A.op_define ();
      if prior = rw_lock_bias then 1
      else begin
        (* transient side effect: restore the bias *)
        ignore (P.fetch_add ~site:"trylock_restore" (o ords "trylock_restore") l.lock rw_lock_bias);
        0
      end)

(* Sequential state: writer held + reader count. *)
type rw_state = { writer : bool; readers : int }

let spec =
  let read_lock_spec =
    {
      Spec.default_method with
      precondition = Some (fun st _ -> not st.writer);
      side_effect = Some (fun st _ -> ({ st with readers = st.readers + 1 }, None));
    }
  in
  let read_unlock_spec =
    {
      Spec.default_method with
      precondition = Some (fun st _ -> st.readers > 0);
      side_effect = Some (fun st _ -> ({ st with readers = st.readers - 1 }, None));
    }
  in
  let write_lock_spec =
    {
      Spec.default_method with
      precondition = Some (fun st _ -> (not st.writer) && st.readers = 0);
      side_effect = Some (fun st _ -> ({ st with writer = true }, None));
    }
  in
  let write_unlock_spec =
    {
      Spec.default_method with
      precondition = Some (fun st _ -> st.writer);
      side_effect = Some (fun st _ -> ({ st with writer = false }, None));
    }
  in
  let write_trylock_spec =
    {
      Spec.default_method with
      side_effect =
        Some
          (fun st (info : Spec.info) ->
            let s_ret = if st.writer || st.readers > 0 then 0 else 1 in
            let c_ret = Cdsspec.Call.ret_or 0 info.call in
            let st = if c_ret = 1 then { st with writer = true } else st in
            (st, Some s_ret));
      (* success must be sequentially possible; failure may be spurious *)
      postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            let c_ret = Cdsspec.Call.ret_or 0 info.call in
            c_ret = 0 || s_ret = Some 1);
      (* a spurious failure must be explainable: either some justifying
         prefix leaves the lock busy, or another lock operation ran
         concurrently (racing trylocks' transient side effects can make
         both fail) *)
      justifying_postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            let c_ret = Cdsspec.Call.ret_or 0 info.call in
            if c_ret = 1 then true
            else
              s_ret = Some 0
              || List.exists
                   (fun (c : Cdsspec.Call.t) -> c.name <> "read_unlock" && c.name <> "write_unlock")
                   info.concurrent);
    }
  in
  Spec.Packed
    {
      name = "linux-rwlock";
      initial = (fun () -> { writer = false; readers = 0 });
      methods =
        [
          ("read_lock", read_lock_spec);
          ("read_unlock", read_unlock_spec);
          ("write_lock", write_lock_spec);
          ("write_unlock", write_unlock_spec);
          ("write_trylock", write_trylock_spec);
        ];
      admissibility = [];
      accounting =
        { spec_lines = 18; ordering_point_lines = 5; admissibility_lines = 0; api_methods = 5 };
    }

let critical_write l =
  let v = P.na_load l.data in
  P.na_store l.data (v + 1)

let critical_read l = ignore (P.na_load l.data)

let test_two_writers ords () =
  let l = create () in
  let writer () =
    write_lock ords l;
    critical_write l;
    write_unlock ords l
  in
  let t1 = P.spawn writer in
  let t2 = P.spawn writer in
  P.join t1;
  P.join t2

let test_reader_writer ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        write_lock ords l;
        critical_write l;
        write_unlock ords l)
  in
  let t2 =
    P.spawn (fun () ->
        read_lock ords l;
        critical_read l;
        read_unlock ords l)
  in
  P.join t1;
  P.join t2

let test_trylock ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        write_lock ords l;
        critical_write l;
        write_unlock ords l)
  in
  let t2 =
    P.spawn (fun () ->
        if write_trylock ords l = 1 then begin
          critical_write l;
          write_unlock ords l
        end)
  in
  P.join t1;
  P.join t2

let benchmark =
  Benchmark.make ~name:"Linux RW Lock" ~spec ~sites
    [
      ("two-writers", test_two_writers);
      ("reader-writer", test_reader_writer);
      ("trylock", test_trylock);
    ]
