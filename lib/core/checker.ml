type config = {
  max_histories : int;
  sample_histories : (int * int) option;
  max_prefixes : int;
  strict_histories : bool;
}

let default_config =
  {
    max_histories = 5000;
    sample_histories = None;
    max_prefixes = 2000;
    strict_histories = false;
  }

type violation = {
  kind : [ `Admissibility | `Assertion | `Unjustified | `Cyclic_ordering | `Truncated ];
  message : string;
}

let kind_name = function
  | `Admissibility -> "admissibility"
  | `Assertion -> "assertion"
  | `Unjustified -> "unjustified"
  | `Cyclic_ordering -> "cyclic-ordering"
  | `Truncated -> "truncated"

let str = Format.asprintf

(* ------------------------------------------------------------------ *)
(* Sequential replay                                                   *)

(* One step of sequential replay: apply [call]'s pre/side/postcondition
   to [state], returning the post-side-effect state or the failure
   message. Both the sampled whole-history replay and the prefix-sharing
   DFS are built on this, so their failure messages agree byte for
   byte. *)
let step (type st) (spec : st Spec.t) info_of state (call : Call.t) =
  let m = Spec.method_spec spec call.name in
  let info = info_of call in
  let pre_ok = match m.precondition with Some p -> p state info | None -> true in
  if not pre_ok then Error "precondition failed"
  else begin
    let state, s_ret =
      match m.side_effect with Some f -> f state info | None -> (state, None)
    in
    let post_ok = match m.postcondition with Some p -> p state info ~s_ret | None -> true in
    if post_ok then Ok state
    else
      Error
        (str "postcondition failed (C_RET=%s, S_RET=%s)"
           (match call.ret with Some r -> string_of_int r | None -> "-")
           (match s_ret with Some r -> string_of_int r | None -> "-"))
  end

(* Justifying pre/side/postcondition of the last call of a subhistory
   (Def. 4). *)
let justify_last (type st) (spec : st Spec.t) info_of state (m : Call.t) =
  let ms = Spec.method_spec spec m.name in
  let info = info_of m in
  (match ms.justifying_precondition with Some p -> p state info | None -> true)
  &&
  let state, s_ret =
    match ms.side_effect with Some f -> f state info | None -> (state, None)
  in
  match ms.justifying_postcondition with Some p -> p state info ~s_ret | None -> true

(* List-then-replay of one sampled sequential history ([sample_histories]
   draws are not a DFS, so there is no tree to share prefixes over).
   Returns the first failure. *)
let replay_history (type st) (spec : st Spec.t) info_of (history : Call.t list) =
  let rec go state = function
    | [] -> None
    | (call : Call.t) :: rest -> (
      match step spec info_of state call with
      | Ok state -> go state rest
      | Error why -> Some (call, why))
  in
  go (spec.initial ()) history

(* ------------------------------------------------------------------ *)
(* Prefix-sharing replay                                               *)

let assertion_violation ~history ~call why =
  {
    kind = `Assertion;
    message =
      str "%s in history %a for call %a" why
        Fmt.(list ~sep:(any " -> ") Call.pp)
        history Call.pp call;
  }

(* Def. 6 via prefix sharing: DFS over the topological-sort tree of ⊑r,
   threading the persistent sequential state down the recursion, so a
   prefix shared by many histories is replayed once instead of once per
   history, and a set of calls already replayed to the same state in
   another order is not replayed again (the walker merges equal
   (down-set, state) nodes — hence the state alone is threaded, and the
   failing prefix comes back from the walker). The walk stops at the
   first failing call; the reported history is that prefix completed
   greedily ([any_topological_sort] picks the first available node,
   i.e. the leftmost leaf of the failing subtree), which is exactly the
   first failing history in the walk's order: every leaf left of the
   failing node passed. The [max] budget is charged before entering a
   node, so no call belonging only to histories beyond the first [max]
   is ever replayed. *)
let check_histories_shared (type st) ~max (spec : st Spec.t) info_of relation calls find =
  let nodes = List.map (fun (c : Call.t) -> c.id) calls in
  let failure = ref "" in
  match
    C11.Relation.walk_linear_extensions ~max ~nodes relation ~init:(spec.initial ())
      ~enter:(fun state id ->
        match step spec info_of state (find id) with
        | Ok state' -> `Enter state'
        | Error why ->
          failure := why;
          `Stop)
      ~leaf:(fun _ -> `Continue)
  with
  | `Complete -> (None, false)
  | `Truncated -> (None, true)
  | `Stopped path ->
    let remaining = List.filter (fun id -> not (List.mem id path)) nodes in
    let completion =
      if remaining = [] then [] else C11.Relation.any_topological_sort ~nodes:remaining relation
    in
    let call = find (List.nth path (List.length path - 1)) in
    (Some (assertion_violation ~history:(List.map find (path @ completion)) ~call !failure), false)

(* Justification of [m] (Defs. 3-4) via prefix sharing: DFS over the
   linearizations of m's strict down-set, threading [Some state] while
   the prefix satisfies the spec and [None] once it has failed. Failed
   prefixes still walk to their leaves so the [max] budget counts every
   linearization, accepted or not — the walker merges them and charges
   their leaves without replaying; the walk stops at the first
   accepting subhistory. *)
let justified_shared (type st) ~max (spec : st Spec.t) info_of relation find (m : Call.t) =
  let nodes = C11.Relation.down_set relation m.id in
  match
    C11.Relation.walk_linear_extensions ~max ~nodes relation ~init:(Some (spec.initial ()))
      ~enter:(fun state id ->
        match state with
        | None -> `Enter None
        | Some st -> (
          match step spec info_of st (find id) with
          | Ok st' -> `Enter (Some st')
          | Error _ -> `Enter None))
      ~leaf:(fun state ->
        match state with
        | Some st when justify_last spec info_of st m -> `Stop
        | _ -> `Continue)
  with
  | `Stopped _ -> (true, false)
  | `Complete -> (false, false)
  | `Truncated -> (false, true)

(* ------------------------------------------------------------------ *)
(* Admissibility                                                       *)

let check_admissibility (type st) (spec : st Spec.t) relation calls =
  let violations = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let pairs = History.unordered_pairs relation calls in
  List.iter
    (fun ((a : Call.t), (b : Call.t)) ->
      List.iter
        (fun (rule : Spec.admissibility_rule) ->
          let check m1 m2 =
            if m1.Call.name = rule.first && m2.Call.name = rule.second && rule.requires_order m1 m2
            then begin
              let message =
                str "calls %a and %a must be ordered but are not" Call.pp m1 Call.pp m2
              in
              if not (Hashtbl.mem seen message) then begin
                Hashtbl.add seen message ();
                violations := { kind = `Admissibility; message } :: !violations
              end
            end
          in
          (* Both orientations, always: a same-name rule whose
             [requires_order] is not symmetric holds in only one
             direction, and skipping the reversed check silently
             admitted the pair. Symmetric rules just produce the two
             mirror findings (deduplicated by message). *)
          check a b;
          check b a)
        spec.admissibility)
    pairs;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Per-object check                                                    *)

(* The full result of checking one object instance: the verdict plus
   whether either enumeration hit its cap — previously the truncation
   flags were silently discarded, so a capped (hence partial) check was
   indistinguishable from a complete one. *)
type outcome = {
  violations : violation list;
  histories_truncated : bool;
  prefixes_truncated : bool;
}

let clean = { violations = []; histories_truncated = false; prefixes_truncated = false }

(* Check the calls of ONE object instance (caller renumbers ids densely
   and precomputes ⊑r over them). *)
let check_object (type st) ~config (spec : st Spec.t) relation calls =
  if calls = [] then clean
  else if not (C11.Relation.is_acyclic relation) then
    {
      clean with
      violations =
        [
          {
            kind = `Cyclic_ordering;
            message = "ordering points induce a cyclic method-call relation";
          };
        ];
    }
  else begin
    (* ids are dense and in list order (see [check_spec]), so the
       walks' per-call lookups are array reads *)
    let by_id = Array.of_list calls in
    let find id = by_id.(id) in
    let infos = Array.make (Array.length by_id) None in
    let info_of (c : Call.t) =
      match infos.(c.id) with
      | Some i -> i
      | None ->
        let i = { Spec.call = c; concurrent = History.concurrent relation calls c } in
        infos.(c.id) <- Some i;
        i
    in
    let admissibility = check_admissibility spec relation calls in
    if admissibility <> [] then { clean with violations = admissibility }
    else begin
      (* Def. 6: the specification must hold on every valid sequential
         history. Random sampling has no tree to share prefixes over, so
         it replays each drawn history from the start. *)
      let history_violation, h_trunc =
        match config.sample_histories with
        | Some (count, seed) ->
          ( List.find_map
              (fun history ->
                match replay_history spec info_of history with
                | None -> None
                | Some (call, why) -> Some (assertion_violation ~history ~call why))
              (History.sample_histories ~count ~seed relation calls),
            false )
        | None -> check_histories_shared ~max:config.max_histories spec info_of relation calls find
      in
      match history_violation with
      | Some v -> { clean with violations = [ v ]; histories_truncated = h_trunc }
      | None ->
        (* Justify non-deterministic behaviours: some justifying
           subhistory (with the CONCURRENT set available to the
           predicates) must accept each call (Defs. 3-4). *)
        let p_trunc = ref false in
        let unjustified =
          List.filter_map
            (fun (m : Call.t) ->
              let ms = Spec.method_spec spec m.name in
              if not (Spec.needs_justification ms) then None
              else begin
                let justified, truncated =
                  justified_shared ~max:config.max_prefixes spec info_of relation find m
                in
                if truncated then p_trunc := true;
                if justified then None
                else
                  Some
                    {
                      kind = `Unjustified;
                      message =
                        str "call %a has no justifying subhistory for its behaviour" Call.pp m;
                    }
              end)
            calls
        in
        let strict =
          if not config.strict_histories then []
          else
            (if h_trunc then
               [
                 {
                   kind = `Truncated;
                   message =
                     str
                       "sequential-history enumeration hit the max_histories cap (%d): \
                        unchecked histories remain"
                       config.max_histories;
                 };
               ]
             else [])
            @
            if !p_trunc then
              [
                {
                  kind = `Truncated;
                  message =
                    str
                      "justifying-subhistory enumeration hit the max_prefixes cap (%d): \
                       unchecked subhistories remain"
                      config.max_prefixes;
                };
              ]
            else []
        in
        {
          violations = unjustified @ strict;
          histories_truncated = h_trunc;
          prefixes_truncated = !p_trunc;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Cross-execution check cache                                         *)

type cached = { verdict : violation list; h_trunc : bool; p_trunc : bool }

type cache = {
  memoize : bool;
  table : (string, cached) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable histories_truncated : int;
  mutable prefixes_truncated : int;
}

let create_cache ?(memoize = true) () =
  {
    memoize;
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    histories_truncated = 0;
    prefixes_truncated = 0;
  }

let cache_counters c =
  Mutex.lock c.lock;
  let r =
    {
      Mc.Explorer.cache_hits = c.hits;
      cache_misses = c.misses;
      cache_entries = Hashtbl.length c.table;
      histories_truncated = c.histories_truncated;
      prefixes_truncated = c.prefixes_truncated;
    }
  in
  Mutex.unlock c.lock;
  r

type cache_entry = {
  entry_key : string;
  entry_verdict : violation list;
  entry_h_trunc : bool;
  entry_p_trunc : bool;
}

let export_entries c =
  Mutex.lock c.lock;
  let r =
    Hashtbl.fold
      (fun key (v : cached) acc ->
        { entry_key = key; entry_verdict = v.verdict; entry_h_trunc = v.h_trunc;
          entry_p_trunc = v.p_trunc }
        :: acc)
      c.table []
  in
  Mutex.unlock c.lock;
  r

(* Imported entries land in the table without bumping hit/miss counters:
   a preloaded verdict is neither — the counters describe this run's
   lookups. No-op with memoization off, so [--no-check-cache] keeps its
   meaning even against a warm store. *)
let import_entries c entries =
  if c.memoize then begin
    Mutex.lock c.lock;
    List.iter
      (fun e ->
        if not (Hashtbl.mem c.table e.entry_key) then
          Hashtbl.replace c.table e.entry_key
            { verdict = e.entry_verdict; h_trunc = e.entry_h_trunc; p_trunc = e.entry_p_trunc })
      entries;
    Mutex.unlock c.lock
  end

(* Canonical fingerprint of one per-object check instance: the calls in
   dense-id order (name, args, C_RET, tid) plus the reachability closure
   of ⊑r as an n*n bit matrix. Everything the checker's verdict depends
   on is a function of exactly these: histories and justifying
   subhistories are the linear extensions of the closure, CONCURRENT
   sets are its complement, and spec predicates are pure functions of
   the call fields and CONCURRENT (they must not read [obj],
   [begin_index], [end_index] or [ordering_points] — see HACKING.md).
   Two executions whose renumbered call lists collide here are the same
   check instance, so the verdict is memoized across executions. *)
let fingerprint relation (calls : Call.t list) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (c : Call.t) ->
      Buffer.add_string buf c.name;
      Buffer.add_char buf '\x01';
      List.iter
        (fun a ->
          Buffer.add_string buf (string_of_int a);
          Buffer.add_char buf ',')
        c.args;
      Buffer.add_char buf '\x02';
      (match c.ret with
      | Some r -> Buffer.add_string buf (string_of_int r)
      | None -> ());
      Buffer.add_char buf '\x02';
      Buffer.add_string buf (string_of_int c.tid);
      Buffer.add_char buf '\x03')
    calls;
  List.iter
    (fun (a : Call.t) ->
      List.iter
        (fun (b : Call.t) ->
          Buffer.add_char buf
            (if a.id <> b.id && C11.Relation.reachable relation a.id b.id then '1' else '0'))
        calls)
    calls;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Whole-execution check                                               *)

(* Composability (paper section 3.2): each object instance is checked
   against the specification independently (ids renumbered densely per
   object, which is also what makes fingerprints collide across
   executions and across objects). *)
let check_spec (type st) ~config ?cache (spec : st Spec.t) exec annots =
  let calls = History.calls_of_annots annots in
  let objs = List.sort_uniq compare (List.map (fun (c : Call.t) -> c.obj) calls) in
  List.concat_map
    (fun obj ->
      let group = List.filter (fun (c : Call.t) -> c.obj = obj) calls in
      let group = List.mapi (fun i (c : Call.t) -> { c with id = i }) group in
      let relation = History.ordering_relation exec group in
      let outcome =
        match cache with
        | None -> check_object ~config spec relation group
        | Some cache ->
          let key = fingerprint relation group in
          let cached =
            if not cache.memoize then None
            else begin
              Mutex.lock cache.lock;
              let r = Hashtbl.find_opt cache.table key in
              Mutex.unlock cache.lock;
              r
            end
          in
          (match cached with
          | Some c ->
            Mutex.lock cache.lock;
            cache.hits <- cache.hits + 1;
            if c.h_trunc then
              cache.histories_truncated <- cache.histories_truncated + 1;
            if c.p_trunc then cache.prefixes_truncated <- cache.prefixes_truncated + 1;
            Mutex.unlock cache.lock;
            {
              violations = c.verdict;
              histories_truncated = c.h_trunc;
              prefixes_truncated = c.p_trunc;
            }
          | None ->
            let o = check_object ~config spec relation group in
            (* The lock is released during the (possibly long) check, so
               another domain may have inserted the same key meanwhile;
               keep the first entry (verdicts for equal keys are equal
               anyway). *)
            Mutex.lock cache.lock;
            cache.misses <- cache.misses + 1;
            if o.histories_truncated then
              cache.histories_truncated <- cache.histories_truncated + 1;
            if o.prefixes_truncated then
              cache.prefixes_truncated <- cache.prefixes_truncated + 1;
            if cache.memoize && not (Hashtbl.mem cache.table key) then
              Hashtbl.add cache.table key
                {
                  verdict = o.violations;
                  h_trunc = o.histories_truncated;
                  p_trunc = o.prefixes_truncated;
                };
            Mutex.unlock cache.lock;
            o)
      in
      outcome.violations)
    objs

let check_execution ?(config = default_config) ?cache (Spec.Packed spec) exec annots =
  check_spec ~config ?cache spec exec annots

let hook ?config ?cache packed exec annots =
  List.map
    (fun v -> Mc.Bug.Spec_violation { kind = kind_name v.kind; message = v.message })
    (check_execution ?config ?cache packed exec annots)
