module S = Mc.Scheduler
module Vec = C11.Vec

type config = {
  scheduler : S.config;
  bias : Bias.policy;
  max_executions : int option;
  time_budget : float option;
  stop_on_first_bug : bool;
  minimize : bool;
  progress : (int -> unit) option;
}

let default_config =
  {
    scheduler = S.default_config;
    bias = Bias.Prefer_stale_rf;
    max_executions = Some 10_000;
    time_budget = None;
    stop_on_first_bug = false;
    minimize = true;
    progress = None;
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
  first_buggy_trace : string option;
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
  let scheduler = { scheduler with S.sleep_sets = false } in
  let remaining = ref decisions in
  let pick _ =
    match !remaining with
    | [] -> 0
    | i :: tl ->
      remaining := tl;
      i
  in
  let r = S.run ~pick ~config:scheduler ~trace:(Vec.create ()) main in
  (r, bugs_of_run ?on_feasible r)

let run ?(config = default_config) ?on_feasible
    ?(check = fun () -> Mc.Explorer.no_check_counters) ~seed main =
  let scheduler = { config.scheduler with S.sleep_sets = false } in
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
  let first_buggy_trace = ref None in
  let first_buggy_exec = ref None in
  let truncated = ref false in
  let continue_ = ref true in
  while !continue_ do
    let run_index = !executions in
    (* per-run stream: execution i depends only on (seed, i) *)
    let sampler = Bias.sampler config.bias (Rng.make2 seed run_index) in
    let trace = Vec.create () in
    let r = S.run ~pick:(Bias.pick sampler) ~config:scheduler ~trace main in
    incr executions;
    (match config.progress with
    | Some f when !executions mod 256 = 0 -> f !executions
    | _ -> ());
    (match r.outcome with
    | S.Complete -> (
      incr feasible;
      Hashtbl.replace coverage (Fingerprint.execution r.exec) ();
      match bugs_of_run ?on_feasible r with
      | [] -> ()
      | bugs ->
        incr buggy;
        if !time_to_first_bug = None then
          time_to_first_bug := Some (Mc.Monotonic.now () -. t0);
        if !first_buggy_trace = None then begin
          first_buggy_trace := Some (Fmt.str "%a" C11.Execution.pp r.exec);
          first_buggy_exec := Some r.exec
        end;
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
                    let _, bugs = replay ~scheduler ?on_feasible ~decisions:cand main in
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
    | S.Pruned_sleep_set -> () (* unreachable: sleep sets are disabled *)
    | S.Pruned_equiv -> () (* unreachable: no [prune] callback is passed *));
    if !continue_ then begin
      let capped =
        match config.max_executions with Some m -> !executions >= m | None -> false
      in
      let timed_out =
        match config.time_budget with
        | Some b -> Mc.Monotonic.now () -. t0 >= b
        | None -> false
      in
      if timed_out && not capped then truncated := true;
      if capped || timed_out then continue_ := false
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
    first_buggy_trace = !first_buggy_trace;
    first_buggy_exec = !first_buggy_exec;
  }

let explorer_result (r : result) : Mc.Explorer.result =
  {
    stats =
      {
        explored = r.stats.executions;
        feasible = r.stats.feasible;
        pruned_loop_bound = r.stats.pruned_loop_bound;
        pruned_retry = r.stats.pruned_retry;
        pruned_max_actions = r.stats.pruned_max_actions;
        pruned_sleep_set = 0;
        pruned_equiv = 0;
        distinct_graphs = r.stats.coverage;
        buggy = r.stats.buggy;
        truncated = r.stats.truncated;
        time = r.stats.time;
        minor_words = 0.;
        snapshots = 0;
        restores = 0;
        commits = 0;
        fiber_switches = 0;
        inline_ops = 0;
        rf_queries = 0;
        rf_fast = 0;
        rf_rejected = 0;
        check = r.stats.check;
      };
    bugs = List.map (fun f -> f.bug) r.found;
    first_buggy_trace = r.first_buggy_trace;
    first_buggy_exec = r.first_buggy_exec;
    graphs = r.graphs;
    closed = [];
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
