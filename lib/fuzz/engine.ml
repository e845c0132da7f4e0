module S = Mc.Scheduler
module Vec = C11.Vec

type config = {
  scheduler : S.config;
  bias : Bias.policy;
  max_executions : int option;
  stop_on_first_bug : bool;
  minimize : bool;
}

let default_config =
  {
    scheduler = S.default_config;
    bias = Bias.Prefer_stale_rf;
    max_executions = Some 10_000;
    stop_on_first_bug = false;
    minimize = true;
  }

type stats = {
  executions : int;
  feasible : int;
  pruned_loop_bound : int;
  pruned_retry : int;
  pruned_max_actions : int;
  buggy : int;
  coverage : int;
  minimization_replays : int;
  time : float;
  time_to_first_bug : float option;
  truncated : bool;
  check : Mc.Explorer.check_counters;
}

type found = {
  bug : Mc.Bug.t;
  execution : int;
  trace : int list;
  minimized : int list;
}

type result = {
  seed : int;
  bias : Bias.policy;
  stats : stats;
  found : found list;
  graphs : int64 list;
  first_buggy_exec : C11.Execution.t option;
}

(* The chosen-index list of a completed run: together with the program it
   replays the execution exactly (the scheduler records every non-trivial
   decision point in order). *)
let decisions_of_trace trace = List.map S.decision_chosen (Vec.to_list trace)

let bugs_of_run ?on_feasible (r : S.run_result) =
  match r.outcome with
  | S.Complete -> (
    match r.bugs, on_feasible with
    | [], Some check -> check r.exec r.annots
    | builtin, _ -> builtin)
  | S.Pruned_loop_bound _ | S.Pruned_max_actions | S.Pruned_sleep_set | S.Pruned_equiv
  | S.Pruned_retry ->
    []

let replay ?(scheduler = default_config.scheduler) ?on_feasible ~decisions main =
  let remaining = ref decisions in
  let pick _ =
    match !remaining with
    | [] -> 0
    | i :: tl ->
      remaining := tl;
      i
  in
  let s = S.session_create ~pick ~config:scheduler ~trace:(Vec.create ()) main in
  let r = Fun.protect ~finally:(fun () -> S.session_close s) (fun () -> S.session_run s) in
  (r, bugs_of_run ?on_feasible r)

let run ?(config = default_config) ?on_feasible
    ?(check = fun () -> Mc.Explorer.no_check_counters) ?stop ~seed main =
  let t0 = Mc.Monotonic.now () in
  let executions = ref 0 in
  let feasible = ref 0 in
  let pruned_loop = ref 0 in
  let pruned_retry = ref 0 in
  let pruned_max = ref 0 in
  let buggy = ref 0 in
  let coverage : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let seen_bugs : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let found = ref [] in
  let minimization_replays = ref 0 in
  let time_to_first_bug = ref None in
  let first_buggy_exec = ref None in
  let truncated = ref false in
  let continue_ = ref true in
  (* one sampling session: each run installs its sampler, then restarts *)
  let sampler = ref (Bias.sampler config.bias (Rng.make2 seed 0)) in
  let trace = Vec.create () in
  let session =
    S.session_create ~pick:(fun d -> Bias.pick !sampler d) ~config:config.scheduler ~trace main
  in
  Fun.protect ~finally:(fun () -> S.session_close session) @@ fun () ->
  while !continue_ do
    let run_index = !executions in
    (* per-run stream: execution i depends only on (seed, i) *)
    sampler := Bias.sampler config.bias (Rng.make2 seed run_index);
    Vec.truncate trace 0;
    let r = S.session_run session in
    incr executions;
    (match r.outcome with
    | S.Complete -> (
      incr feasible;
      Hashtbl.replace coverage (C11.Execution.fingerprint r.exec) ();
      match bugs_of_run ?on_feasible r with
      | [] -> ()
      | bugs ->
        incr buggy;
        if !time_to_first_bug = None then
          time_to_first_bug := Some (Mc.Monotonic.now () -. t0);
        (* the next run rewinds the session's graph: keep a copy *)
        if !first_buggy_exec = None then first_buggy_exec := Some (C11.Execution.copy r.exec);
        let decisions = decisions_of_trace trace in
        List.iter
          (fun b ->
            let key = Mc.Bug.key b in
            if not (Hashtbl.mem seen_bugs key) then begin
              Hashtbl.add seen_bugs key ();
              let minimized =
                if not config.minimize then decisions
                else begin
                  let check cand =
                    let _, bugs =
                      replay ~scheduler:config.scheduler ?on_feasible ~decisions:cand main
                    in
                    List.exists (fun b' -> Mc.Bug.key b' = key) bugs
                  in
                  let m, replays = Minimize.run ~check decisions in
                  minimization_replays := !minimization_replays + replays;
                  m
                end
              in
              found := { bug = b; execution = run_index; trace = decisions; minimized } :: !found
            end)
          bugs;
        if config.stop_on_first_bug then begin
          truncated := true;
          continue_ := false
        end)
    | S.Pruned_loop_bound _ -> incr pruned_loop
    | S.Pruned_retry -> incr pruned_retry
    | S.Pruned_max_actions -> incr pruned_max
    | S.Pruned_sleep_set -> () (* unreachable: sampling runs without sleep sets *)
    | S.Pruned_equiv -> () (* unreachable: no [prune] callback is passed *));
    if !continue_ then begin
      let capped =
        match config.max_executions with Some m -> !executions >= m | None -> false
      in
      let stopped = (not capped) && match stop with Some f -> f () | None -> false in
      if stopped then truncated := true;
      if capped || stopped then continue_ := false
    end
  done;
  {
    seed;
    bias = config.bias;
    stats =
      {
        executions = !executions;
        feasible = !feasible;
        pruned_loop_bound = !pruned_loop;
        pruned_retry = !pruned_retry;
        pruned_max_actions = !pruned_max;
        buggy = !buggy;
        coverage = Hashtbl.length coverage;
        minimization_replays = !minimization_replays;
        time = Mc.Monotonic.now () -. t0;
        time_to_first_bug = !time_to_first_bug;
        truncated = !truncated;
        check = check ();
      };
    found = List.rev !found;
    graphs =
      List.sort_uniq Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) coverage []);
    first_buggy_exec = !first_buggy_exec;
  }

let explorer_result (r : result) : Mc.Explorer.result =
  {
    stats =
      {
        Mc.Explorer.no_stats with
        explored = r.stats.executions;
        feasible = r.stats.feasible;
        pruned_loop_bound = r.stats.pruned_loop_bound;
        pruned_retry = r.stats.pruned_retry;
        pruned_max_actions = r.stats.pruned_max_actions;
        distinct_graphs = r.stats.coverage;
        buggy = r.stats.buggy;
        truncated = r.stats.truncated;
        time = r.stats.time;
        check = r.stats.check;
      };
    bugs = List.map (fun f -> f.bug) r.found;
    first_buggy_exec = r.first_buggy_exec;
    graphs = r.graphs;
    closed = [];
    witnesses = [];
  }

let trace_to_string l = String.concat "." (List.map string_of_int l)

let trace_of_string s =
  if String.trim s = "" then Some []
  else
    let parts = String.split_on_char '.' (String.trim s) in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: tl -> (
        match int_of_string_opt p with
        | Some i when i >= 0 -> go (i :: acc) tl
        | _ -> None)
    in
    go [] parts
