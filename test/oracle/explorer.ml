module S = Mc.Scheduler
module E = Mc.Explorer
module Vec = C11.Vec

(* Advance [trace] to the next unexplored branch: pop exhausted trailing
   decisions, closing the key of each popped scheduling decision (its
   subtree is now fully explored), and bump the deepest decision with an
   alternative left. [false] once the whole tree is explored. *)
let rec backtrack ~close trace =
  if Vec.is_empty trace then false
  else
    match Vec.last trace with
    | S.Sched d when d.sched_chosen + 1 < Array.length d.candidates ->
      d.sched_chosen <- d.sched_chosen + 1;
      true
    | S.Choice d when d.choice_chosen + 1 < d.num ->
      d.choice_chosen <- d.choice_chosen + 1;
      true
    | S.Sched { state; _ } ->
      Option.iter close state;
      ignore (Vec.pop trace);
      backtrack ~close trace
    | S.Choice _ ->
      ignore (Vec.pop trace);
      backtrack ~close trace

let run ?prune ~config ~trace main =
  let session = S.session_create ?prune ~config ~trace main in
  Fun.protect ~finally:(fun () -> S.session_close session) (fun () -> S.session_run session)

let explore ?(config = E.default_config) ?on_feasible main =
  let t0 = Mc.Monotonic.now () in
  let closed : (S.prune_key, unit) Hashtbl.t = Hashtbl.create 256 in
  let prune = if config.prune then Some (Hashtbl.mem closed) else None in
  let graphs : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let bug_keys : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let bugs = ref [] and first_buggy_exec = ref None in
  let trace = Vec.create () in
  let rec loop (s : E.stats) =
    let r = run ?prune ~config:config.scheduler ~trace main in
    let s = { s with explored = s.explored + 1 } in
    let s =
      match r.outcome with
      | S.Complete ->
        let fp = C11.Execution.fingerprint r.exec in
        let fresh = not (Hashtbl.mem graphs fp) in
        Hashtbl.replace graphs fp ();
        let found =
          if fresh || not config.prune then
            match r.bugs, on_feasible with [], Some check -> check r.exec r.annots | b, _ -> b
          else []
        in
        List.iter
          (fun b ->
            if not (Hashtbl.mem bug_keys (Mc.Bug.key b)) then begin
              Hashtbl.add bug_keys (Mc.Bug.key b) ();
              bugs := b :: !bugs
            end)
          found;
        if found <> [] && !first_buggy_exec = None then first_buggy_exec := Some r.exec;
        { s with feasible = s.feasible + 1; buggy = (s.buggy + if found = [] then 0 else 1) }
      | Pruned_loop_bound _ -> { s with pruned_loop_bound = s.pruned_loop_bound + 1 }
      | Pruned_max_actions -> { s with pruned_max_actions = s.pruned_max_actions + 1 }
      | Pruned_sleep_set -> { s with pruned_sleep_set = s.pruned_sleep_set + 1 }
      | Pruned_equiv -> { s with pruned_equiv = s.pruned_equiv + 1 }
      | Pruned_retry -> { s with pruned_retry = s.pruned_retry + 1 }
    in
    if Option.fold ~none:false ~some:(fun m -> s.explored >= m) config.max_executions then
      { s with truncated = true }
    else if backtrack ~close:(fun k -> Hashtbl.replace closed k ()) trace then loop s
    else s
  in
  let stats = loop E.no_stats in
  {
    E.stats =
      { stats with distinct_graphs = Hashtbl.length graphs; time = Mc.Monotonic.now () -. t0 };
    bugs = List.rev !bugs;
    first_buggy_exec = !first_buggy_exec;
    graphs = List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) graphs []);
    closed = Hashtbl.fold (fun k () acc -> k :: acc) closed [];
    witnesses = [];
  }
