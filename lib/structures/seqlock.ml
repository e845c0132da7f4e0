module P = Mc.Program
module A = Cdsspec.Annotations
module Spec = Cdsspec.Spec
open C11.Memory_order

(* Two data words guarded by the sequence number: a torn snapshot (word_a
   from one write, word_b from another) is observable, which is what the
   sequence validation protocol must prevent. A write [v] stores [v] in
   both words; a validated read returns word_a and asserts the words
   match. *)
type t = { seq : P.loc; data_a : P.loc; data_b : P.loc }

let sites =
  [
    Ords.site "write_load_seq" For_load Acquire;
    Ords.site "write_cas_seq" For_rmw Acq_rel;
    Ords.site "write_store_a" For_store Release;
    Ords.site "write_store_b" For_store Release;
    Ords.site "write_store_seq" For_store Release;
    Ords.site "read_load_seq1" For_load Acquire;
    Ords.site "read_load_a" For_load Acquire;
    Ords.site "read_load_b" For_load Acquire;
    Ords.site "read_load_seq2" For_load Relaxed;
  ]

let create () =
  let seq = P.malloc 1 in
  let data_a = P.malloc 1 in
  let data_b = P.malloc 1 in
  P.store Relaxed seq 0;
  P.store Relaxed data_a 0;
  P.store Relaxed data_b 0;
  { seq; data_a; data_b }

let o = Ords.get

let write ords l value =
  A.api_proc ~obj:l.seq ~name:"write" ~args:[ value ] (fun () ->
      let rec acquire_seq () =
        let s =
          P.await ~site:"write_load_seq" (o ords "write_load_seq") l.seq ~until:(fun s -> s mod 2 <> 1)
        in
        if P.cas ~site:"write_cas_seq" (o ords "write_cas_seq") l.seq ~expected:s ~desired:(s + 1)
        then s
        else acquire_seq ()
      in
      let s = acquire_seq () in
      P.store ~site:"write_store_a" (o ords "write_store_a") l.data_a value;
      P.store ~site:"write_store_b" (o ords "write_store_b") l.data_b value;
      A.op_define ();
      P.store ~site:"write_store_seq" (o ords "write_store_seq") l.seq (s + 2))

let read ords l =
  A.api_fun ~obj:l.seq ~name:"read" ~args:[] (fun () ->
      let rec attempt () =
        let s1 =
          P.await ~site:"read_load_seq1" (o ords "read_load_seq1") l.seq ~until:(fun s -> s mod 2 <> 1)
        in
        let a = P.load ~site:"read_load_a" (o ords "read_load_a") l.data_a in
        let b = P.load ~site:"read_load_b" (o ords "read_load_b") l.data_b in
        A.op_clear_define ();
        let s2 = P.load ~site:"read_load_seq2" (o ords "read_load_seq2") l.seq in
        (* return the snapshot as a pair encoding so the specification
           sees both words: a consistent snapshot has a = b *)
        if s1 = s2 then (a * 16) + b else attempt ()
      in
      attempt ())

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
      (* the sequential read returns the packed consistent snapshot *)
      side_effect = Some (fun st _ -> (st, Some ((st * 16) + st)));
      (* non-deterministic: a read may observe an older snapshot... *)
      postcondition = Some (fun _st _info ~s_ret:_ -> true);
      (* ...but it must be the snapshot of some justifying prefix — not a
         torn value from a merely concurrent writer. *)
      justifying_postcondition =
        Some
          (fun _st (info : Spec.info) ~s_ret ->
            Some (Cdsspec.Call.ret_or min_int info.call) = s_ret);
    }
  in
  Spec.Packed
    {
      name = "seqlock";
      initial = (fun () -> 0);
      methods = [ ("write", write_spec); ("read", read_spec) ];
      admissibility = [];
      accounting =
        { spec_lines = 7; ordering_point_lines = 2; admissibility_lines = 0; api_methods = 2 };
    }

let test_1write_1read ords () =
  let l = create () in
  let t1 = P.spawn (fun () -> write ords l 1) in
  let t2 = P.spawn (fun () -> ignore (read ords l)) in
  P.join t1;
  P.join t2

let test_2write_1read ords () =
  let l = create () in
  let t1 = P.spawn (fun () -> write ords l 1) in
  let t2 = P.spawn (fun () -> write ords l 2) in
  let t3 = P.spawn (fun () -> ignore (read ords l)) in
  P.join t1;
  P.join t2;
  P.join t3

let test_write_read_same_thread ords () =
  let l = create () in
  let t1 =
    P.spawn (fun () ->
        write ords l 1;
        ignore (read ords l))
  in
  let t2 = P.spawn (fun () -> ignore (read ords l)) in
  P.join t1;
  P.join t2

let benchmark =
  (* Writers/readers retry in tight spin loops; two retries per static
     operation suffice to expose every distinct behaviour, so bound loops
     harder than the default to keep the 3-thread test tractable. *)
  Benchmark.make
    ~scheduler:{ Mc.Scheduler.default_config with loop_bound = 2 }
    ~name:"Seqlock" ~spec ~sites
    [
      ("1write-1read", test_1write_1read);
      ("2write-1read", test_2write_1read);
      ("write-then-read", test_write_read_same_thread);
    ]
