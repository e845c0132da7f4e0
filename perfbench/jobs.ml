(* The benchmark's job lists. Every job is a call a CLI or daemon user
   makes under the default configuration, and carries the verdict it
   must get: clean under the published orders, a bug under a published
   weakening. The expected verdicts come from the paper and the
   structures' published orders, never from a run of the checker. *)

module B = Structures.Benchmark
module Ords = Structures.Ords

(* [Bug prefix]: at least one reported bug whose {!Mc.Bug.key} starts
   with [prefix] ("race:" for a data race, "uninit:" for an
   uninitialized load). *)
type expect = Clean | Bug of string

type job = {
  label : string;  (* "bench/test", plus "@site=relaxed" for a weakening *)
  bench : B.t;
  test : B.test;
  weaken : string option;  (* site pinned to relaxed *)
  ords : Ords.t;
  max_execs : int option;
  expect : expect;
}

let find_bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> failwith ("perfbench: no benchmark " ^ name)

let find_test (b : B.t) name =
  match List.find_opt (fun (t : B.test) -> t.test_name = name) b.tests with
  | Some t -> t
  | None -> failwith (Printf.sprintf "perfbench: no test %s/%s" b.name name)

(* [cdsspec_run check]'s default [--max-executions]. *)
let cli_cap = Some 500_000

let clean ?(max_execs = cli_cap) (b : B.t) (t : B.test) =
  {
    label = b.name ^ "/" ^ t.test_name;
    bench = b;
    test = t;
    weaken = None;
    ords = Ords.default b.sites;
    max_execs;
    expect = Clean;
  }

let weakened bench test site kind =
  let b = find_bench bench in
  let t = find_test b test in
  {
    label = Printf.sprintf "%s/%s@%s=relaxed" b.name test site;
    bench = b;
    test = t;
    weaken = Some site;
    ords = Ords.with_order b.sites site C11.Memory_order.Relaxed;
    max_execs = cli_cap;
    expect = Bug kind;
  }

(* MCS Lock/handoff is the one exhaustive unit test the CLI's 500k cap
   truncates, so [check] cannot give it a complete verdict. *)
let truncated_by_cli_cap = [ ("MCS Lock", "handoff") ]

(* The published weakenings (paper section 6.4.1 and the structures'
   documented known bugs), each on the unit test that exposes it: a
   relaxed link or next-pointer load publishes a node whose payload
   then races; a relaxed resize lets a steal read the new buffer
   uninitialized. *)
let weakenings =
  [
    ("M&S Queue", "1enq-1deq", "enq_cas_next", "race:");
    ("M&S Queue", "1enq-1deq", "deq_load_next", "race:");
    ("Bounded Queue", "1push-1pop", "push_cas_next", "race:");
    ("Bounded Queue", "1push-1pop", "pop_load_next", "race:");
    ("Chase-Lev Deque", "resize-race", "resize_store_array", "uninit:");
  ]

let registry =
  let clean_jobs =
    List.concat_map
      (fun (b : B.t) ->
        List.filter_map
          (fun (t : B.test) ->
            if List.mem (b.name, t.test_name) truncated_by_cli_cap then None else Some (clean b t))
          b.tests)
      Structures.Registry.exhaustive
  in
  clean_jobs @ List.map (fun (b, t, s, kind) -> weakened b t s kind) weakenings

(* History-heavy programs: 8 calls over 4 threads, so the checker's
   history walk dominates each execution. They are the programs of
   [bench/main.exe check-cache]'s fuzz rows. *)
let ms_8calls =
  let program ords () =
    let module P = Mc.Program in
    let module Q = Structures.Ms_queue in
    let q = Q.create () in
    let producer base =
      P.spawn (fun () ->
          Q.enq ords q (base + 1);
          Q.enq ords q (base + 2))
    in
    let consumer () =
      P.spawn (fun () ->
          ignore (Q.deq ords q);
          ignore (Q.deq ords q))
    in
    let t1 = producer 10 and t2 = consumer () and t3 = producer 30 and t4 = consumer () in
    List.iter P.join [ t1; t2; t3; t4 ]
  in
  B.make ~name:"M&S Queue (8 calls)" ~spec:Structures.Ms_queue.spec
    ~sites:Structures.Ms_queue.sites
    [ ("2x2enq-2x2deq", program) ]

let treiber_8calls =
  let program ords () =
    let module P = Mc.Program in
    let module S = Structures.Treiber_stack in
    let s = S.create () in
    let pusher base =
      P.spawn (fun () ->
          S.push ords s (base + 1);
          S.push ords s (base + 2))
    in
    let popper () =
      P.spawn (fun () ->
          ignore (S.pop ords s);
          ignore (S.pop ords s))
    in
    let t1 = pusher 10 and t2 = popper () and t3 = pusher 30 and t4 = popper () in
    List.iter P.join [ t1; t2; t3; t4 ]
  in
  B.make ~name:"Treiber Stack (8 calls)" ~spec:Structures.Treiber_stack.spec
    ~sites:Structures.Treiber_stack.sites
    [ ("2x2push-2x2pop", program) ]

(* Campaigns of 500 executions, as [check --fuzz --max-executions 500]. *)
let history =
  List.map
    (fun (b : B.t) -> clean ~max_execs:(Some 500) b (List.hd b.tests))
    [ ms_8calls; treiber_8calls ]
