module Ck = Cdsspec.Checker
module History = Cdsspec.History
module Spec = Cdsspec.Spec
module Call = Cdsspec.Call

let str = Format.asprintf

let kind_name (v : Ck.violation) =
  match v.kind with
  | `Admissibility -> "admissibility"
  | `Assertion -> "assertion"
  | `Unjustified -> "unjustified"
  | `Cyclic_ordering -> "cyclic-ordering"
  | `Truncated -> "truncated"

(* Apply [call]'s precondition, side effect and postcondition to [state]
   (Def. 5). *)
let step (type st) (spec : st Spec.t) info_of state (call : Call.t) =
  let m = Spec.method_spec spec call.name in
  let info = info_of call in
  if not (match m.precondition with Some p -> p state info | None -> true) then
    Error "precondition failed"
  else
    let state, s_ret =
      match m.side_effect with Some f -> f state info | None -> (state, None)
    in
    if match m.postcondition with Some p -> p state info ~s_ret | None -> true then Ok state
    else
      Error
        (str "postcondition failed (C_RET=%s, S_RET=%s)"
           (match call.ret with Some r -> string_of_int r | None -> "-")
           (match s_ret with Some r -> string_of_int r | None -> "-"))

(* Replay one sequential history from the initial state: the first call
   that fails, and why. *)
let replay_history (type st) (spec : st Spec.t) info_of history =
  let rec go state = function
    | [] -> None
    | (call : Call.t) :: rest -> (
      match step spec info_of state call with
      | Ok state -> go state rest
      | Error why -> Some (call, why))
  in
  go (spec.initial ()) history

(* A justifying subhistory of [m] ([m] last) accepts when its prefix
   satisfies the specification and m's justifying pre- and
   postconditions hold around m's side effect (Def. 4). *)
let replay_justifying (type st) (spec : st Spec.t) info_of subhistory =
  let rec go state = function
    | [] -> false
    | [ (m : Call.t) ] ->
      let ms = Spec.method_spec spec m.name in
      let info = info_of m in
      (match ms.justifying_precondition with Some p -> p state info | None -> true)
      &&
      let state, s_ret =
        match ms.side_effect with Some f -> f state info | None -> (state, None)
      in
      (match ms.justifying_postcondition with Some p -> p state info ~s_ret | None -> true)
    | call :: rest -> (
      match step spec info_of state call with
      | Ok state -> go state rest
      | Error _ -> false)
  in
  go (spec.initial ()) subhistory

let justifying_subhistories ?max relation calls (m : Call.t) =
  let find = History.by_id calls in
  let prefixes, truncated =
    Linear_extensions.enumerate ?max ~nodes:(C11.Relation.down_set relation m.id) relation
  in
  (List.map (fun ids -> List.map find ids @ [ m ]) prefixes, truncated)

(* Check one object's calls (dense ids, [relation] = ⊑r over them). *)
let check_object (type st) ~(config : Ck.config) (spec : st Spec.t) relation calls =
  let find = History.by_id calls in
  let info_of (c : Call.t) =
    { Spec.call = c; concurrent = History.concurrent relation calls c }
  in
  if calls = [] then []
  else if not (C11.Relation.is_acyclic relation) then
    [
      {
        Ck.kind = `Cyclic_ordering;
        message = "ordering points induce a cyclic method-call relation";
      };
    ]
  else
    match Ck.check_admissibility spec relation calls with
    | _ :: _ as admissibility -> admissibility
    | [] -> (
      (* Def. 6: the specification holds on every valid sequential
         history. *)
      let nodes = List.map (fun (c : Call.t) -> c.id) calls in
      let histories, h_trunc =
        match config.sample_histories with
        | Some (count, seed) ->
          (C11.Relation.sample_linear_extensions ~count ~seed ~nodes relation, false)
        | None -> Linear_extensions.enumerate ~max:Ck.max_histories ~nodes relation
      in
      let failure =
        List.find_map
          (fun ids ->
            let history = List.map find ids in
            Option.map
              (fun (call, why) -> (history, call, why))
              (replay_history spec info_of history))
          histories
      in
      match failure with
      | Some (history, call, why) ->
        [
          {
            Ck.kind = `Assertion;
            message =
              str "%s in history %a for call %a" why
                Fmt.(list ~sep:(any " -> ") Call.pp)
                history Call.pp call;
          };
        ]
      | None ->
        (* Defs. 3-4: every call with a justifying condition has an
           accepting justifying subhistory. *)
        let p_trunc = ref false in
        let unjustified =
          List.filter_map
            (fun (m : Call.t) ->
              if not (Spec.needs_justification (Spec.method_spec spec m.name)) then None
              else begin
                let subhistories, truncated =
                  justifying_subhistories ~max:Ck.max_prefixes relation calls m
                in
                if truncated then p_trunc := true;
                if List.exists (replay_justifying spec info_of) subhistories then None
                else
                  Some
                    {
                      Ck.kind = `Unjustified;
                      message =
                        str "call %a has no justifying subhistory for its behaviour" Call.pp m;
                    }
              end)
            calls
        in
        let truncated flag message =
          if config.strict_histories && flag then [ { Ck.kind = `Truncated; message } ] else []
        in
        unjustified
        @ truncated h_trunc
            (str
               "sequential-history enumeration hit the max_histories cap (%d): unchecked \
                histories remain"
               Ck.max_histories)
        @ truncated !p_trunc
            (str
               "justifying-subhistory enumeration hit the max_prefixes cap (%d): unchecked \
                subhistories remain"
               Ck.max_prefixes))

(* Each object instance is checked on its own, its calls renumbered
   densely (paper section 3.2). *)
let check_execution ?(config = Ck.default_config) (Spec.Packed spec) exec annots =
  let calls = History.calls_of_annots annots in
  let objs = List.sort_uniq compare (List.map (fun (c : Call.t) -> c.obj) calls) in
  List.concat_map
    (fun obj ->
      let group = List.filter (fun (c : Call.t) -> c.obj = obj) calls in
      let group = List.mapi (fun i (c : Call.t) -> { c with id = i }) group in
      check_object ~config spec (History.ordering_relation exec group) group)
    objs

let hook ?config packed exec annots =
  List.map
    (fun (v : Ck.violation) -> Mc.Bug.Spec_violation { kind = kind_name v; message = v.message })
    (check_execution ?config packed exec annots)
