(** Fresh-run reference for {!Mc.Explorer}: the depth-first search over
    the choice tree done the direct way. Every execution is the first
    run of a fresh {!Mc.Scheduler.session} ({!run}), which commits every
    action from action zero along the recorded decision trace, so
    nothing is restored or replayed. Equivalence pruning follows the
    same rule as the engine: a scheduling decision's key is closed when
    backtracking pops it, and [run ~prune] cuts a fresh decision point
    whose key is closed; under pruning a repeated graph skips
    [on_feasible] and bug recording. The tests hold the arena engine's
    serial results to this one's exactly, in both prune modes. *)

(** [run ?prune ~config ~trace main] runs one execution of [main] from
    action zero along [trace], extending it with index 0 at every fresh
    decision point: [session_create], one [session_run], then
    [session_close]. The session is never run again, so the result's
    graph stays valid, and its [switches] and [inline_ops] count this
    run alone. *)
val run :
  ?prune:(Mc.Scheduler.prune_key -> bool) ->
  config:Mc.Scheduler.config ->
  trace:Mc.Scheduler.decision C11.Vec.t ->
  (unit -> unit) ->
  Mc.Scheduler.run_result

(** [explore ?config ?on_feasible main] reads [config]'s [scheduler],
    [max_executions] and [prune]. The result's [stats] fill the
    semantic counters — [explored], [feasible], every [pruned_*],
    [distinct_graphs], [buggy], [truncated] — and [time]; every engine
    counter (snapshots, commits, switches, rf queries, allocation) is
    0. [bugs], [first_buggy_exec], [graphs] and [closed] are as in
    {!Mc.Explorer.result}. *)
val explore :
  ?config:Mc.Explorer.config ->
  ?on_feasible:(C11.Execution.t -> Mc.Scheduler.annot list -> Mc.Bug.t list) ->
  (unit -> unit) ->
  Mc.Explorer.result
