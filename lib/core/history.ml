module Annot = Mc.Scheduler

(* Per-thread reconstruction state while scanning the annotation stream. *)
type open_call = {
  name : string;
  args : int list;
  obj : int;
  begin_index : int;
  mutable depth : int;  (* nesting of internal api_call brackets *)
  mutable ops : int list;  (* ordering-point action ids, reverse order *)
  mutable potential : (string * int) list;  (* labelled potential OPs *)
}

let calls_of_annots annots =
  let open_calls : (int, open_call) Hashtbl.t = Hashtbl.create 8 in
  let finished = ref [] in
  let count = ref 0 in
  let handle (a : Annot.annot) =
    let current = Hashtbl.find_opt open_calls a.tid in
    match a.annotation, current with
    | Mc.Program.Method_begin { name; args; obj }, None ->
      Hashtbl.replace open_calls a.tid
        { name; args; obj; begin_index = a.index; depth = 1; ops = []; potential = [] }
    | Method_begin _, Some oc -> oc.depth <- oc.depth + 1
    | Method_end { ret }, Some oc ->
      oc.depth <- oc.depth - 1;
      if oc.depth = 0 then begin
        Hashtbl.remove open_calls a.tid;
        let id = !count in
        incr count;
        finished :=
          {
            Call.id;
            tid = a.tid;
            obj = oc.obj;
            name = oc.name;
            args = oc.args;
            ret;
            ordering_points = List.rev oc.ops;
            begin_index = oc.begin_index;
            end_index = a.index;
          }
          :: !finished
      end
    | Method_end _, None -> invalid_arg "calls_of_annots: Method_end without Method_begin"
    | Op_define, Some oc -> (
      match a.op_action with
      | Some id -> oc.ops <- id :: oc.ops
      | None -> ())
    (* @OPClear discards the call's ordering-point state wholesale:
       uncommitted potential OPs are part of that state, so they are
       dropped too — otherwise a later @OPCheck could resurrect an
       operation from before the clear. *)
    | Op_clear, Some oc ->
      oc.ops <- [];
      oc.potential <- []
    | Op_clear_define, Some oc -> (
      oc.ops <- [];
      oc.potential <- [];
      match a.op_action with
      | Some id -> oc.ops <- [ id ]
      | None -> ())
    | Potential_op label, Some oc -> (
      match a.op_action with
      | Some id -> oc.potential <- (label, id) :: oc.potential
      | None -> ())
    (* @OPCheck commits the remembered operations; committing twice (two
       checks of the same label, or a label remembered twice for the
       same action) must not duplicate an ordering point. *)
    | Op_check label, Some oc ->
      List.iter
        (fun (l, id) -> if l = label && not (List.mem id oc.ops) then oc.ops <- id :: oc.ops)
        oc.potential
    | (Op_define | Op_clear | Op_clear_define | Potential_op _ | Op_check _), None ->
      (* an ordering-point annotation outside any API call is ignored *)
      ()
  in
  List.iter handle annots;
  List.sort (fun (a : Call.t) b -> compare a.id b.id) !finished

(* Hot path: runs on every feasible execution, over all pairs of calls.
   The action lookups (id -> Action.t) and seq_cst tests are hoisted out
   of the pair loop into per-call arrays so the inner loop is pure
   vector-clock queries, short-circuited on the first ordered pair. *)
let ordering_relation exec (calls : Call.t list) =
  let calls = Array.of_list calls in
  let n = Array.length calls in
  let r = C11.Relation.create n in
  let acts =
    Array.map
      (fun (c : Call.t) ->
        Array.of_list (List.map (C11.Execution.action exec) c.ordering_points))
      calls
  in
  let sc = Array.map (Array.map C11.Action.is_seq_cst) acts in
  let ordered i j =
    let ops_a = acts.(i) and ops_b = acts.(j) in
    let sc_a = sc.(i) and sc_b = sc.(j) in
    try
      for x = 0 to Array.length ops_a - 1 do
        let a = ops_a.(x) in
        for y = 0 to Array.length ops_b - 1 do
          let b = ops_b.(y) in
          if
            a.C11.Action.id <> b.C11.Action.id
            && (C11.Action.happens_before a b || (sc_a.(x) && sc_b.(y) && a.id < b.id))
          then raise Exit
        done
      done;
      false
    with Exit -> true
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if calls.(i).id <> calls.(j).id && ordered i j then
        C11.Relation.add_edge r calls.(i).id calls.(j).id
    done
  done;
  r

let concurrent r calls (m : Call.t) =
  List.filter (fun (c : Call.t) -> c.id <> m.id && not (C11.Relation.ordered r c.id m.id)) calls

let unordered_pairs r calls =
  let pairs = ref [] in
  List.iter
    (fun (a : Call.t) ->
      List.iter
        (fun (b : Call.t) ->
          if a.id < b.id && not (C11.Relation.ordered r a.id b.id) then pairs := (a, b) :: !pairs)
        calls)
    calls;
  List.rev !pairs

let by_id calls =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (c : Call.t) -> Hashtbl.replace tbl c.id c) calls;
  fun id ->
    match Hashtbl.find_opt tbl id with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "History.by_id: no call with id %d" id)

let sample_histories ~count ~seed r calls =
  let find = by_id calls in
  let nodes = List.map (fun (c : Call.t) -> c.id) calls in
  List.map (List.map find) (C11.Relation.sample_linear_extensions ~count ~seed ~nodes r)
