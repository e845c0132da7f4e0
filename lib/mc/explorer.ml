module Vec = C11.Vec

type config = {
  scheduler : Scheduler.config;
  max_executions : int option;
  progress : (int -> unit) option;
  prune : bool;
  engine : [ `Arena ];
}

let default_config =
  {
    scheduler = Scheduler.default_config;
    max_executions = None;
    progress = None;
    prune = true;
    engine = `Arena;
  }

type check_counters = {
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  histories_truncated : int;
  prefixes_truncated : int;
}

let no_check_counters =
  {
    cache_hits = 0;
    cache_misses = 0;
    cache_entries = 0;
    histories_truncated = 0;
    prefixes_truncated = 0;
  }

type stats = {
  explored : int;
  feasible : int;
  pruned_loop_bound : int;
  pruned_max_actions : int;
  pruned_sleep_set : int;
  pruned_equiv : int;
  pruned_retry : int;
  distinct_graphs : int;
  buggy : int;
  truncated : bool;
  time : float;
  minor_words : float;  (* minor-heap words allocated during the search *)
  snapshots : int;  (* arena snapshots captured *)
  restores : int;  (* arena snapshot restores *)
  commits : int;  (* actions committed (incl. re-commits after restore) *)
  fiber_switches : int;  (* ops that suspended their fiber via an effect *)
  inline_ops : int;  (* ops committed in the dispatch hook, no suspension *)
  rf_queries : int;  (* rf-candidate floor queries answered *)
  rf_fast : int;  (* always 0: the memoized floor it counted is gone *)
  rf_rejected : int;  (* stores rejected before replay, summed over queries *)
  check : check_counters;
}

let no_stats =
  {
    explored = 0;
    feasible = 0;
    pruned_loop_bound = 0;
    pruned_max_actions = 0;
    pruned_sleep_set = 0;
    pruned_equiv = 0;
    pruned_retry = 0;
    distinct_graphs = 0;
    buggy = 0;
    truncated = false;
    time = 0.;
    minor_words = 0.;
    snapshots = 0;
    restores = 0;
    commits = 0;
    fiber_switches = 0;
    inline_ops = 0;
    rf_queries = 0;
    rf_fast = 0;
    rf_rejected = 0;
    check = no_check_counters;
  }

type witness = { keys : string list; path : Scheduler.decision array }

type result = {
  stats : stats;
  bugs : Bug.t list;
  first_buggy_exec : C11.Execution.t option;
  graphs : int64 list;
  closed : Scheduler.prune_key list;
      (* decision-point states whose subtrees this search fully explored —
         what the persistent store saves so a later identical run can
         prune them without re-exploring ([] with pruning off) *)
  witnesses : witness list;
      (* one per run that reported a new bug key, in discovery order —
         what the store saves so a hit can replay the buggy runs *)
}

(* Decision records are mutated by [backtrack]; a prefix handed to
   another explorer (a parallel work item, or a stolen subtree) must own
   its records or explorers would race on [sched_chosen]. The candidates
   array is never mutated after creation, so the copy shares it — a
   donation costs O(prefix) record headers, not a deep copy. *)
let copy_decision : Scheduler.decision -> Scheduler.decision = function
  | Scheduler.Sched d ->
    Scheduler.Sched { sched_chosen = d.sched_chosen; candidates = d.candidates; state = d.state }
  | Choice d -> Choice { choice_chosen = d.choice_chosen; num = d.num }

(* Advance [trace] to the next unexplored branch: drop exhausted trailing
   decisions and bump the deepest one with alternatives left. Returns
   false when the whole (sub)tree has been explored. The first [frozen]
   decisions are never flipped or popped: they pin the subtree being
   explored (the parallel explorer freezes a prefix per work item).
   [close] is called with the state key of every popped scheduling
   decision — popping it means its subtree is now fully explored, which
   is what arms equivalence pruning against that state. *)
let backtrack ?(frozen = 0) ?close (trace : Scheduler.decision Vec.t) =
  let rec go () =
    if Vec.length trace <= frozen then false
    else begin
      match Vec.last trace with
      | Scheduler.Sched d when d.sched_chosen + 1 < Array.length d.candidates ->
        d.sched_chosen <- d.sched_chosen + 1;
        true
      | Choice d when d.choice_chosen + 1 < d.num ->
        d.choice_chosen <- d.choice_chosen + 1;
        true
      | Sched { state; _ } ->
        (match state, close with Some k, Some f -> f k | _ -> ());
        ignore (Vec.pop trace);
        go ()
      | Choice _ ->
        ignore (Vec.pop trace);
        go ()
    end
  in
  go ()

(* The shallowest level >= [frozen] of [trace] with unexplored sibling
   branches — the donation point for work stealing (shallowest = the
   largest remaining chunk of this subtree). *)
let donatable ~frozen (trace : Scheduler.decision Vec.t) =
  let n = Vec.length trace in
  let rec go i =
    if i >= n then None
    else
      let d = Vec.get trace i in
      if Scheduler.decision_chosen d + 1 < Scheduler.decision_arity d then Some i else go (i + 1)
  in
  go frozen

let explore_subtree ?(config = default_config) ?on_feasible ?(check = fun () -> no_check_counters)
    ?stop ?want_split ?on_split ?warm ~trace ~frozen main =
  let t0 = Monotonic.now () in
  let g0 = Gc.minor_words () in
  (* Time spent in the caller's [progress] callback is the caller's, not
     the search's: subtract it, or a slow reporter inflates [stats.time]. *)
  let progress_overhead = ref 0. in
  let explored = ref 0 in
  let feasible = ref 0 in
  let pruned_loop = ref 0 in
  let pruned_max = ref 0 in
  let pruned_sleep = ref 0 in
  let pruned_equiv = ref 0 in
  let pruned_retry = ref 0 in
  let buggy = ref 0 in
  let truncated = ref false in
  let seen_bugs : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let bugs = ref [] in
  let first_buggy_exec = ref None in
  let witnesses = ref [] in
  (* Fully-explored decision-point states: a fresh decision point whose
     key is in here can only replay an already-explored subtree, so the
     scheduler aborts the run with [Pruned_equiv]. Soundness: keys are
     only added when backtracking pops the decision (subtree complete),
     and the DFS-first representative of every state is therefore never
     pruned. *)
  let visited : (Scheduler.prune_key, unit) Hashtbl.t = Hashtbl.create 256 in
  let close k = Hashtbl.replace visited k () in
  (* [warm] is a read-only set of states proven fully explored by an
     earlier run of the *same* program/config (the persistent store's
     closed prune keys). It is consulted alongside [visited] but never
     written: if the program actually changed, no warm key ever matches
     and the search degrades to a plain cold exploration. Shared across
     domains without a lock — it is frozen before the search starts. *)
  let prune =
    if not config.prune then None
    else
      match warm with
      | None -> Some (fun k -> Hashtbl.mem visited k)
      | Some w -> Some (fun k -> Hashtbl.mem visited k || Hashtbl.mem w k)
  in
  (* Distinct feasible execution graphs, by canonical fingerprint. Under
     pruning, repeated graphs also skip [on_feasible] and bug recording:
     an identical graph yields identical bugs and verdicts, all already
     recorded at its first (DFS-earliest) occurrence. *)
  let graphs : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let frozen = ref frozen in
  let record_bugs exec found =
    if found <> [] then begin
      incr buggy;
      (* [exec] is the session's single graph, valid only until the
         next run: retaining it takes a deep copy. *)
      if Option.is_none !first_buggy_exec then first_buggy_exec := Some (C11.Execution.copy exec);
      let added =
        List.fold_left
          (fun added b ->
            let key = Bug.key b in
            if Hashtbl.mem seen_bugs key then added
            else begin
              Hashtbl.add seen_bugs key ();
              bugs := b :: !bugs;
              key :: added
            end)
          [] found
      in
      (* The run's decision path replays it; [backtrack] mutates the
         records, so the witness keeps copies. *)
      if added <> [] then begin
        let path = Array.init (Vec.length trace) (fun i -> copy_decision (Vec.get trace i)) in
        witnesses := { keys = List.rev added; path } :: !witnesses
      end
    end
  in
  let session = Scheduler.session_create ?prune ~config:config.scheduler ~trace main in
  (* The session's counters are cumulative: [switches] and [inline_ops]
     of the last run, and the single execution's commit and rf counters
     read once at the end, cover the whole search. *)
  let switches = ref 0 and inlined = ref 0 in
  let continue_ = ref true in
  (* A run that diverges from a replayed trace raises out of the search:
     its suspended fibers are freed on the way. *)
  Fun.protect ~finally:(fun () -> Scheduler.session_close session) @@ fun () ->
  while !continue_ do
    let r = Scheduler.session_run session in
    incr explored;
    switches := r.switches;
    inlined := r.inline_ops;
    (match config.progress with
    | Some f when !explored mod 1024 = 0 ->
      let p0 = Monotonic.now () in
      f !explored;
      progress_overhead := !progress_overhead +. (Monotonic.now () -. p0)
    | _ -> ());
    (match r.outcome with
    | Scheduler.Complete ->
      incr feasible;
      let fp = C11.Execution.fingerprint r.exec in
      let fresh = not (Hashtbl.mem graphs fp) in
      if fresh then Hashtbl.add graphs fp ();
      if fresh || not config.prune then begin
        let found =
          match r.bugs, on_feasible with
          | [], Some check -> check r.exec r.annots
          | builtin, _ -> builtin
        in
        record_bugs r.exec found
      end
    | Pruned_loop_bound _ -> incr pruned_loop
    | Pruned_max_actions -> incr pruned_max
    | Pruned_sleep_set -> incr pruned_sleep
    | Pruned_equiv -> incr pruned_equiv
    | Pruned_retry -> incr pruned_retry);
    let stopped = match stop with Some f -> f () | None -> false in
    let capped = match config.max_executions with Some m -> !explored >= m | None -> false in
    if stopped || capped then begin
      truncated := true;
      continue_ := false
    end
    else if not (backtrack ~frozen:!frozen ~close trace) then continue_ := false
    else begin
      (* Work stealing: when the pool is hungry, donate the shallowest
         unexplored sibling branches — the largest chunk — as one new
         work item, then freeze that level so this explorer never
         re-enters what it gave away. *)
      match want_split, on_split with
      | Some want, Some give when want () -> (
        match donatable ~frozen:!frozen trace with
        | None -> ()
        | Some i ->
          let key =
            List.init (i + 1) (fun j ->
                let c = Scheduler.decision_chosen (Vec.get trace j) in
                if j = i then c + 1 else c)
          in
          let prefix =
            Array.init (i + 1) (fun j ->
                let d = copy_decision (Vec.get trace j) in
                if j = i then begin
                  match d with
                  | Scheduler.Sched s -> s.sched_chosen <- s.sched_chosen + 1
                  | Choice c -> c.choice_chosen <- c.choice_chosen + 1
                end;
                d)
          in
          give ~key ~prefix ~frozen:i;
          frozen := i + 1)
      | _ -> ()
    end
  done;
  let graph_list = List.sort_uniq Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) graphs []) in
  let snapshots, restores = Scheduler.session_counters session in
  let exec = Scheduler.session_exec session in
  let rf_queries, rf_rejected = C11.Execution.rf_counters exec in
  {
    stats =
      {
        explored = !explored;
        feasible = !feasible;
        pruned_loop_bound = !pruned_loop;
        pruned_max_actions = !pruned_max;
        pruned_sleep_set = !pruned_sleep;
        pruned_equiv = !pruned_equiv;
        pruned_retry = !pruned_retry;
        distinct_graphs = Hashtbl.length graphs;
        buggy = !buggy;
        truncated = !truncated;
        time = Monotonic.now () -. t0 -. !progress_overhead;
        minor_words = Gc.minor_words () -. g0;
        snapshots;
        restores;
        commits = C11.Execution.commit_count exec;
        fiber_switches = !switches;
        inline_ops = !inlined;
        rf_queries;
        rf_fast = 0;
        rf_rejected;
        check = check ();
      };
    bugs = List.rev !bugs;
    first_buggy_exec = !first_buggy_exec;
    graphs = graph_list;
    closed = Hashtbl.fold (fun k () acc -> k :: acc) visited [];
    witnesses = List.rev !witnesses;
  }

let explore ?config ?on_feasible ?check ?stop ?warm main =
  explore_subtree ?config ?on_feasible ?check ?stop ?warm ~trace:(Vec.create ()) ~frozen:0 main
