(* Soundness of the sleep-set partial-order reduction: on random
   straight-line programs, exploration with and without the reduction
   must produce exactly the same set of execution graphs (the reduction
   may only prune redundant interleavings of one graph).

   An execution graph is fingerprinted by its actions keyed by (tid, seq)
   — schedule-independent names — with their reads-from edges and values,
   plus the per-location modification orders. That is everything the
   semantics observes: the SC constraints only relate same-location
   operations (captured by rf and mo) and fences (which never commute
   with anything, so their interleavings are never pruned).

   Programs may also wait ([OAwait], {!Mc.Program.await} for a cell to
   hold a value), which makes threads block and runs deadlock. The
   await properties below check that sleep sets stay sound when
   enabledness changes, and that an await is its spin loop with the
   stuttering iterations removed. *)

module P = Mc.Program
module E = Mc.Explorer
open C11.Memory_order

type op_desc =
  | OStore of int * int * C11.Memory_order.t
  | OLoad of int * C11.Memory_order.t
  | OCas of int * int * int * C11.Memory_order.t
  | OFadd of int * int * C11.Memory_order.t
  | OFence of C11.Memory_order.t
  | ONaStore of int * int
  | ONaLoad of int
  | OAwait of int * int * C11.Memory_order.t  (* loc, value to wait for *)

type _prog_desc = op_desc list list  (* one op list per thread *)

let print_op = function
  | OStore (l, v, mo) -> Printf.sprintf "store(%d,%d,%s)" l v (C11.Memory_order.to_string mo)
  | OLoad (l, mo) -> Printf.sprintf "load(%d,%s)" l (C11.Memory_order.to_string mo)
  | OCas (l, e, d, mo) -> Printf.sprintf "cas(%d,%d,%d,%s)" l e d (C11.Memory_order.to_string mo)
  | OFadd (l, d, mo) -> Printf.sprintf "fadd(%d,%d,%s)" l d (C11.Memory_order.to_string mo)
  | OFence mo -> Printf.sprintf "fence(%s)" (C11.Memory_order.to_string mo)
  | ONaStore (l, v) -> Printf.sprintf "na_store(%d,%d)" l v
  | ONaLoad l -> Printf.sprintf "na_load(%d)" l
  | OAwait (l, v, mo) -> Printf.sprintf "await(%d=%d,%s)" l v (C11.Memory_order.to_string mo)

let print_prog p =
  String.concat " || " (List.map (fun t -> String.concat "; " (List.map print_op t)) p)

let gen_mo kind =
  QCheck.Gen.oneofl (C11.Memory_order.all_for kind)

let gen_op_with ~na ~await =
  QCheck.Gen.(
    frequency
      ([
        (4, map3 (fun l v mo -> OStore (l, v, mo)) (int_bound 1) (int_range 1 2) (gen_mo For_store));
        (4, map2 (fun l mo -> OLoad (l, mo)) (int_bound 1) (gen_mo For_load));
        ( 2,
          map3 (fun l e mo -> OCas (l, e, e + 1, mo)) (int_bound 1) (int_bound 2) (gen_mo For_rmw)
        );
        (2, map3 (fun l d mo -> OFadd (l, d, mo)) (int_bound 1) (int_range 1 2) (gen_mo For_rmw));
        (1, map (fun mo -> OFence mo) (gen_mo For_fence));
      ]
      @ (if na then
           [
             (1, map2 (fun l v -> ONaStore (l, v)) (int_bound 1) (int_range 1 2));
             (1, map (fun l -> ONaLoad l) (int_bound 1));
           ]
         else [])
      @
      if await then
        [ (3, map3 (fun l v mo -> OAwait (l, v, mo)) (int_bound 1) (int_bound 2) (gen_mo For_load)) ]
      else []))

let gen_prog_with ~na ~await =
  QCheck.Gen.(
    let* nthreads = int_range 2 3 in
    list_repeat nthreads (list_size (int_range 1 3) (gen_op_with ~na ~await)))

let prog_arb = QCheck.make ~print:print_prog (gen_prog_with ~na:true ~await:false)

(* [observe] receives every value an operation returns; [spin] writes
   each await as the load loop it stands for. *)
let run_thread ?(observe = ignore) ?(spin = false) base ops =
  List.iter
    (fun op ->
      match op with
      | OStore (l, v, mo) -> P.store mo (base + l) v
      | OLoad (l, mo) -> observe (P.load mo (base + l))
      | OCas (l, e, d, mo) -> observe (snd (P.cas_val mo (base + l) ~expected:e ~desired:d))
      | OFadd (l, d, mo) -> observe (P.fetch_add mo (base + l) d)
      | OFence mo -> P.fence mo
      | ONaStore (l, v) -> P.na_store (base + l) v
      | ONaLoad l -> observe (P.na_load (base + l))
      | OAwait (l, v, mo) when spin ->
        let rec loop () = if P.load mo (base + l) = v then v else loop () in
        observe (loop ())
      | OAwait (l, v, mo) -> observe (P.await mo (base + l) ~until:(fun x -> x = v)))
    ops

let program_of desc () =
  let base = P.malloc ~init:0 2 in
  let tids = List.map (fun ops -> P.spawn (fun () -> run_thread base ops)) desc in
  List.iter P.join tids

(* Schedule-independent fingerprint (see header comment). *)
let fingerprint exec =
  let n = C11.Execution.num_actions exec in
  let name (a : C11.Action.t) = Printf.sprintf "%d.%d" a.tid a.seq in
  let actions = List.init n (C11.Execution.action exec) in
  let act_str (a : C11.Action.t) =
    Printf.sprintf "%s:%s%s%s"
      (name a)
      (Fmt.str "%a@%d" C11.Memory_order.pp a.mo a.loc)
      (match a.rf with
      | Some id -> ":rf=" ^ name (C11.Execution.action exec id)
      | None -> "")
      (match a.read_value with Some v -> ":r" ^ string_of_int v | None -> "")
  in
  let sorted = List.sort Stdlib.compare (List.map act_str actions) in
  let mo_per_loc =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (a : C11.Action.t) ->
        if C11.Action.is_write a then
          Hashtbl.replace tbl a.loc
            ((match Hashtbl.find_opt tbl a.loc with Some l -> l | None -> []) @ [ name a ]))
      actions;
    Hashtbl.fold (fun loc l acc -> (loc, l) :: acc) tbl [] |> List.sort Stdlib.compare
  in
  (sorted, mo_per_loc)

module FpSet = Set.Make (struct
  type t = string list * (int * string list) list

  let compare = Stdlib.compare
end)

let bug_keys (r : E.result) = List.sort_uniq String.compare (List.map Mc.Bug.key r.bugs)

(* A race key names its two accesses in commit order, which is a
   schedule's choice; sort them so the key names the race alone. *)
let unordered_key k =
  match String.index_opt k '/', String.index_opt k '@' with
  | Some i, Some j when String.starts_with ~prefix:"race:" k ->
    let a = String.sub k 5 (i - 5) and b = String.sub k (i + 1) (j - i - 1) in
    Printf.sprintf "race:%s/%s%s" (min a b) (max a b) (String.sub k j (String.length k - j))
  | _ -> k

(* The graph set of the bug-free runs, the bug keys (races up to the
   order of their accesses) and whether the cap truncated the search. *)
let graphs_of ~sleep_sets desc =
  let acc = ref FpSet.empty in
  let config =
    {
      E.default_config with
      scheduler = { Mc.Scheduler.default_config with sleep_sets };
      max_executions = Some 60_000;
    }
  in
  let r =
    E.explore ~config
      ~on_feasible:(fun exec _ ->
        acc := FpSet.add (fingerprint exec) !acc;
        [])
      (program_of desc)
  in
  (!acc, List.sort_uniq String.compare (List.map unordered_key (bug_keys r)), r.stats.truncated)

(* ------------------------------------------------------------------ *)
(* Awaits *)

let await_arb = QCheck.make ~print:print_prog (gen_prog_with ~na:true ~await:true)

(* (a) An await is enabled only while a store it accepts is readable,
   and a write to its cell can enable or disable it; the reduction must
   still reach every graph and every bug, deadlocks included (race keys
   compared up to the order of their two accesses). *)
let prop_await_sleep_sets =
  QCheck.Test.make ~name:"await: sleep sets preserve graphs and bugs" ~count:2000 await_arb
    (fun desc ->
      let g1, b1, t1 = graphs_of ~sleep_sets:true desc in
      let g2, b2, t2 = graphs_of ~sleep_sets:false desc in
      QCheck.assume (not (t1 || t2));
      FpSet.equal g1 g2 && b1 = b2)

module Obs = Set.Make (struct
  type t = int list list

  let compare = Stdlib.compare
end)

(* The per-thread observation lists of every complete bug-free run. *)
let observations ~spin desc =
  let n = List.length desc in
  let obs = Array.make n [] in
  let acc = ref Obs.empty in
  let program () =
    let base = P.malloc ~init:0 2 in
    Array.fill obs 0 n [];
    let tids =
      List.mapi
        (fun i ops ->
          let observe v = obs.(i) <- v :: obs.(i) in
          P.spawn (fun () -> run_thread ~observe ~spin base ops))
        desc
    in
    List.iter P.join tids
  in
  let config =
    {
      E.default_config with
      scheduler = { Mc.Scheduler.default_config with loop_bound = 6 };
      max_executions = Some 60_000;
    }
  in
  let r =
    E.explore ~config
      ~on_feasible:(fun _ _ ->
        acc := Obs.add (Array.to_list obs) !acc;
        [])
      program
  in
  (!acc, r.stats.truncated)

(* (b) A spin iteration that reads a rejected value adds no observable
   behaviour: removing it only drops coherence and synchronization
   constraints, and the spin can always read the accepted store first
   time. So an await and its spin loop see the same values. Atomic
   operations only: a failed acquire read in the spin can order a later
   non-atomic access, so one execution may race in one form and not the
   other, and racy runs report no observations. *)
let prop_await_is_spin =
  QCheck.Test.make ~name:"await: same observations as its spin loop" ~count:500
    (QCheck.make ~print:print_prog (gen_prog_with ~na:false ~await:true))
    (fun desc ->
      let a, t1 = observations ~spin:false desc in
      let s, t2 = observations ~spin:true desc in
      QCheck.assume (not (t1 || t2));
      Obs.equal a s)

(* (c) Uninitialized memory: the spin reads the poison write and reports
   it, then spins on; the await must report the same load. *)
let test_await_uninit () =
  let keys ~spin =
    let program () =
      let cell = P.malloc 1 in
      let waiter =
        P.spawn (fun () ->
            if spin then begin
              let rec loop () = if P.load ~site:"wait" Acquire cell <> 1 then loop () in
              loop ()
            end
            else ignore (P.await ~site:"wait" Acquire cell ~until:(fun v -> v = 1)))
      in
      let setter = P.spawn (fun () -> P.store Release cell 1) in
      P.join waiter;
      P.join setter
    in
    List.filter
      (fun k -> String.starts_with ~prefix:"uninit:" k)
      (bug_keys (E.explore program))
  in
  let spin = keys ~spin:true in
  Alcotest.(check (list string)) "spin reports the poison read" [ "uninit:wait@1" ] spin;
  Alcotest.(check (list string)) "await reports the same key" spin (keys ~spin:false)

let prop_sleep_sets_preserve_graphs =
  QCheck.Test.make ~name:"sleep sets preserve the execution-graph set" ~count:60 prog_arb
    (fun desc ->
      let with_ss, _, t1 = graphs_of ~sleep_sets:true desc in
      let without, _, t2 = graphs_of ~sleep_sets:false desc in
      QCheck.assume (not (t1 || t2));
      FpSet.equal with_ss without)

(* Determinism: exploring twice yields identical statistics. *)
let prop_exploration_deterministic =
  QCheck.Test.make ~name:"exploration is deterministic" ~count:40 prog_arb (fun desc ->
      let r1 = E.explore (program_of desc) in
      let r2 = E.explore (program_of desc) in
      r1.stats.explored = r2.stats.explored && r1.stats.feasible = r2.stats.feasible)

(* Every feasible execution satisfies basic well-formedness: reads read
   committed same-location writes, and rf respects per-location coherence
   with respect to reads-from indices. *)
let prop_wellformed_rf =
  QCheck.Test.make ~name:"reads-from is well-formed" ~count:60 prog_arb (fun desc ->
      let ok = ref true in
      let _ =
        E.explore
          ~on_feasible:(fun exec _ ->
            let n = C11.Execution.num_actions exec in
            for i = 0 to n - 1 do
              let a = C11.Execution.action exec i in
              match a.rf with
              | Some id ->
                let w = C11.Execution.action exec id in
                if not (C11.Action.is_write w && w.loc = a.loc && id < i) then ok := false
              | None -> ()
            done;
            [])
          (program_of desc)
      in
      !ok)

(* hb is consistent with commit order: an action never happens before an
   earlier-committed one. *)
let prop_hb_respects_commit =
  QCheck.Test.make ~name:"happens-before respects commit order" ~count:60 prog_arb (fun desc ->
      let ok = ref true in
      let _ =
        E.explore
          ~on_feasible:(fun exec _ ->
            let n = C11.Execution.num_actions exec in
            for i = 0 to n - 1 do
              for j = i + 1 to n - 1 do
                if C11.Execution.happens_before exec j i then ok := false
              done
            done;
            [])
          (program_of desc)
      in
      !ok)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "reduction"
    [
      ( "properties",
        [
          qt prop_sleep_sets_preserve_graphs;
          qt prop_exploration_deterministic;
          qt prop_wellformed_rf;
          qt prop_hb_respects_commit;
          qt prop_await_sleep_sets;
          qt prop_await_is_spin;
          Alcotest.test_case "await: uninitialized cell" `Quick test_await_uninit;
        ] );
    ]
