(* Oracle test: on programs whose every operation is seq_cst, the
   engine's outcome set must equal that of a naive sequentially
   consistent reference interpreter (direct enumeration of interleavings
   over a flat memory). This pins the strongest end of the memory model
   to an independently implemented semantics.

   Programs may also wait: [SAwait (l, v)] is [P.await] for cell [l] to
   hold [v]. The reference lets such a thread step only while its cell
   holds [v]; an interleaving in which every unfinished thread waits is
   the outcome [Stuck], which the engine must report as a deadlock.

   And they may retry: [SRetry (l1, l2, s)] is [P.retry] reading cells
   [l1] then [l2] until the two values sum to [s]. The reference runs
   it as the plain loop, one read per step, so another thread may write
   between the two reads. A state in which every unfinished thread
   waits, or sits at the start of a retry iteration that the memory
   makes fail, can only stutter: it is [Stuck] too. *)

module P = Mc.Program
module E = Mc.Explorer

type op =
  | SLoad of int  (* load loc, record observation *)
  | SStore of int * int
  | SCas of int * int * int  (* loc, expected, desired; record success bit *)
  | SFadd of int * int  (* loc, delta; record old value *)
  | SAwait of int * int  (* loc, value: wait until the cell holds it *)
  | SRetry of int * int * int
      (* locs, sum: re-read both until they sum to it; record 10 * first + second *)

type prog = op list list

let print_prog p =
  String.concat " || "
    (List.map
       (fun t ->
         String.concat ";"
           (List.map
              (function
                | SLoad l -> Printf.sprintf "r%d" l
                | SStore (l, v) -> Printf.sprintf "w%d=%d" l v
                | SCas (l, e, d) -> Printf.sprintf "cas%d(%d,%d)" l e d
                | SFadd (l, d) -> Printf.sprintf "fa%d+%d" l d
                | SAwait (l, v) -> Printf.sprintf "await%d=%d" l v
                | SRetry (l1, l2, sum) -> Printf.sprintf "retry(r%d+r%d=%d)" l1 l2 sum)
              t))
       p)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun l -> SLoad l) (int_bound 1));
        (3, map2 (fun l v -> SStore (l, v + 1)) (int_bound 1) (int_bound 2));
        (1, map3 (fun l e d -> SCas (l, e, d + 1)) (int_bound 1) (int_bound 2) (int_bound 2));
        (1, map2 (fun l d -> SFadd (l, d + 1)) (int_bound 1) (int_bound 1));
        (2, map2 (fun l v -> SAwait (l, v)) (int_bound 1) (int_bound 2));
        (2, map3 (fun l1 l2 sum -> SRetry (l1, l2, sum)) (int_bound 1) (int_bound 1) (int_bound 3));
      ])

let gen_prog =
  QCheck.Gen.(
    let* n = int_range 2 3 in
    list_repeat n (list_size (int_range 1 3) gen_op))

let prog_arb = QCheck.make ~print:print_prog gen_prog

(* ------------------ reference SC interpreter --------------------- *)

(* [Done obs]: every thread finished, with these observations; [Stuck]:
   some interleaving left every unfinished thread waiting. *)
type outcome = Done of int list | Stuck

module Outcomes = Set.Make (struct
  type t = outcome

  let compare = compare
end)

(* Enumerate all interleavings over a 2-cell memory; observations are
   appended per THREAD then concatenated in thread order, so the outcome
   tuple is schedule-independent. A thread's local state is its pc and
   the value its current retry iteration read first, if any; retry loops
   make the state graph cyclic, so each state is expanded once. *)
let reference (prog : prog) =
  let nthreads = List.length prog in
  let outcomes = ref Outcomes.empty in
  let seen = Hashtbl.create 256 in
  let rec go mem pcs firsts observations =
    let key = (Array.to_list mem, pcs, firsts, observations) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let unfinished = ref false and stuck = ref true in
      List.iteri
        (fun tid ops ->
          let pc = List.nth pcs tid and first = List.nth firsts tid in
          let next ?(pc = pc + 1) ?first mem obs =
            let set l x = List.mapi (fun i y -> if i = tid then x else y) l in
            go mem (set pcs pc) (set firsts first) (observations @ obs)
          in
          match List.nth_opt ops pc with
          | None -> ()
          | Some op -> (
            unfinished := true;
            match op with
            | SAwait (l, v) ->
              if mem.(l) = v then begin
                stuck := false;
                next mem []
              end
            | SRetry (l1, l2, sum) -> (
              match first with
              | None ->
                (* an iteration begun on a memory that fails it can
                   still succeed if another thread writes in between *)
                if mem.(l1) + mem.(l2) = sum then stuck := false;
                next ~pc ~first:mem.(l1) mem []
              | Some v1 ->
                stuck := false;
                if v1 + mem.(l2) = sum then next mem [ (tid, (10 * v1) + mem.(l2)) ]
                else next ~pc mem [])
            | SLoad l ->
              stuck := false;
              next mem [ (tid, mem.(l)) ]
            | SStore (l, v) ->
              stuck := false;
              let m = Array.copy mem in
              m.(l) <- v;
              next m []
            | SCas (l, e, d) ->
              stuck := false;
              if mem.(l) = e then begin
                let m = Array.copy mem in
                m.(l) <- d;
                next m [ (tid, 1) ]
              end
              else next mem [ (tid, 0) ]
            | SFadd (l, d) ->
              stuck := false;
              let m = Array.copy mem in
              m.(l) <- mem.(l) + d;
              next m [ (tid, mem.(l)) ]))
        prog;
      if !unfinished && !stuck then outcomes := Outcomes.add Stuck !outcomes
      else if not !unfinished then begin
        (* all threads done: flatten observations by thread id *)
        let by_tid tid =
          List.filter_map (fun (t, v) -> if t = tid then Some v else None) observations
        in
        let outcome = List.concat (List.init nthreads by_tid) in
        outcomes := Outcomes.add (Done outcome) !outcomes
      end
    end
  in
  go [| 0; 0 |] (List.map (fun _ -> 0) prog) (List.map (fun _ -> None) prog) [];
  !outcomes

(* --------------------- engine execution -------------------------- *)

let engine (prog : prog) =
  let outcomes = ref Outcomes.empty in
  let nthreads = List.length prog in
  let observations = Array.make nthreads [] in
  let program () =
    let base = P.malloc ~init:0 2 in
    Array.fill observations 0 nthreads [];
    let tids =
      List.mapi
        (fun i ops ->
          P.spawn (fun () ->
              List.iter
                (fun op ->
                  match op with
                  | SLoad l -> observations.(i) <- observations.(i) @ [ P.load Seq_cst (base + l) ]
                  | SStore (l, v) -> P.store Seq_cst (base + l) v
                  | SCas (l, e, d) ->
                    let ok = P.cas Seq_cst (base + l) ~expected:e ~desired:d in
                    observations.(i) <- observations.(i) @ [ (if ok then 1 else 0) ]
                  | SFadd (l, d) ->
                    observations.(i) <- observations.(i) @ [ P.fetch_add Seq_cst (base + l) d ]
                  | SAwait (l, v) -> ignore (P.await Seq_cst (base + l) ~until:(fun x -> x = v))
                  | SRetry (l1, l2, sum) ->
                    let v =
                      P.retry (fun () ->
                          let a = P.load Seq_cst (base + l1) in
                          let b = P.load Seq_cst (base + l2) in
                          if a + b = sum then Some ((10 * a) + b) else None)
                    in
                    observations.(i) <- observations.(i) @ [ v ])
                ops))
        prog
    in
    List.iter P.join tids
  in
  let r =
    E.explore
      ~on_feasible:(fun _ _ ->
        outcomes := Outcomes.add (Done (List.concat (Array.to_list observations))) !outcomes;
        [])
      program
  in
  (* a run that ends with every unfinished thread blocked is reported
     as a deadlock (and gets no [on_feasible] call) *)
  let stuck = List.exists (fun b -> String.starts_with ~prefix:"deadlock:" (Mc.Bug.key b)) r.bugs in
  ((if stuck then Outcomes.add Stuck !outcomes else !outcomes), r)

let prop_sc_matches_reference =
  QCheck.Test.make ~name:"seq_cst-only programs match the SC reference" ~count:400 prog_arb
    (fun prog ->
      let expected = reference prog in
      let got, r = engine prog in
      if not (Outcomes.equal expected got) then
        QCheck.Test.fail_reportf "expected %d outcomes, engine produced %d (feasible %d)"
          (Outcomes.cardinal expected) (Outcomes.cardinal got) r.stats.feasible
      else true)

(* The waiter can read 1 only between the two stores: scheduled after
   both, it waits forever. Both outcomes must appear on both sides. *)
let test_await_stuck () =
  let prog = [ [ SAwait (0, 1) ]; [ SStore (0, 1); SStore (0, 2) ] ] in
  let expected = reference prog in
  let got, _ = engine prog in
  Alcotest.(check bool) "reference: finishes and sticks" true
    (Outcomes.equal expected (Outcomes.of_list [ Done []; Stuck ]));
  Alcotest.(check bool) "engine matches the reference" true (Outcomes.equal expected got)

(* The retry succeeds only between the two stores; begun after both, no
   iteration can succeed. Reading the cells 0 and 1 can never sum to 3
   at all: that loop only sticks. *)
let test_retry_stuck () =
  let check name prog expected =
    Alcotest.(check bool) (name ^ ": reference") true (Outcomes.equal (reference prog) expected);
    Alcotest.(check bool) (name ^ ": engine matches") true (Outcomes.equal (fst (engine prog)) expected)
  in
  check "finishes and sticks"
    [ [ SRetry (0, 1, 1) ]; [ SStore (0, 1); SStore (0, 2) ] ]
    (Outcomes.of_list [ Done [ 10 ]; Stuck ]);
  check "never succeeds" [ [ SRetry (0, 1, 3) ]; [ SStore (0, 1) ] ] (Outcomes.singleton Stuck)

let () =
  Alcotest.run "sc-oracle"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_sc_matches_reference;
          Alcotest.test_case "await: stuck outcome" `Quick test_await_stuck;
          Alcotest.test_case "retry: stuck outcome" `Quick test_retry_stuck;
        ] );
    ]
