(** Runs a single execution of a DSL program under a recorded choice
    trace, extending the trace with default choices at new decision
    points. The explorer replays/backtracks over these traces.

    Scheduling decisions optionally carry sleep-set partial-order
    reduction: a thread explored at a decision node is put to sleep for
    the node's later siblings and only woken by a dependent operation, so
    interleavings that commute to an already-explored one are pruned.
    Two operations are dependent when they touch the same location and at
    least one writes (committing a write enables new reads-from options
    for a pending read, so it must wake sleeping readers), or when either
    is a fence (fences read global state — the SC order).

    A thread paused at {!Program.await} is enabled only while its read
    window holds a store its [until] test accepts, or a poison
    (uninitialized) one; stepping it is a reads-from choice over exactly
    those stores, newest first. It has a load's footprint, so the write
    that enables it wakes it, and counts as a load against the loop
    bound. A thread whose {!Program.retry} iteration failed without a
    bug is enabled never again: it blocks when every read of the
    iteration took its location's newest store, and the run is cut
    ({!Pruned_retry}) when one did not or when a later write reaches a
    location the iteration read. When no unfinished thread is enabled —
    each waits at an [await], a [join] or a failed [retry] — the run
    completes with a {!Bug.Deadlock}. *)

(** Canonical state key of a scheduling decision point: the
    execution-graph fingerprint ({!C11.Execution.fingerprint}), the
    sorted sleep set, and the committed action count (a cheap extra
    collision guard). Two decision points with equal keys generate
    byte-identical subtrees: the graph determines every thread's
    continuation, and the sleep set determines which schedules the DFS
    explores from there. The explorer's equivalence pruning cuts a fresh
    decision point whose key matches an already fully-explored one. *)
type prune_key = { fp : int64; sleeping : int list; nacts : int }

(** One decision point. [Sched] carries the schedulable (enabled and not
    sleeping) thread ids at that point; [Choice] is a reads-from or CAS
    branch. The explorer mutates [chosen] when backtracking; explored
    siblings of a [Sched] node ([candidates.(0 .. chosen-1)]) are its
    sleep-set contribution. [state] is the decision's {!prune_key},
    recorded at creation when pruning is on — the explorer marks it
    fully explored when backtracking pops the record. *)
type sched_decision = {
  mutable sched_chosen : int;
  candidates : int array;
  state : prune_key option;
}

type choice_decision = { mutable choice_chosen : int; num : int }

type decision =
  | Sched of sched_decision
  | Choice of choice_decision

val decision_arity : decision -> int
val decision_chosen : decision -> int

(** An instrumentation marker recorded during the run, tagged with the id
    of the thread's most recent atomic operation (the operation an
    ordering-point annotation designates) and the number of actions
    committed when it was recorded. *)
type annot = {
  tid : int;
  annotation : Program.annotation;
  op_action : int option;
  index : int;
}

type config = {
  loop_bound : int;
      (** Max commits of one operation kind per (thread, location): bounds
          the spin loops that are neither awaits nor retries; branches
          exceeding it are pruned as redundant. *)
  max_actions : int;  (** Backstop on total committed actions per run. *)
  sleep_sets : bool;  (** Enable sleep-set partial-order reduction. *)
}

val default_config : config

type outcome =
  | Complete  (** all threads finished (possibly with bugs reported) *)
  | Pruned_loop_bound of { tid : int; loc : int }
  | Pruned_max_actions
  | Pruned_sleep_set  (** redundant interleaving cut by the sleep set *)
  | Pruned_equiv
      (** subtree cut by equivalence pruning: its state key matched an
          already fully-explored decision point, so every execution graph
          below it has been visited *)
  | Pruned_retry
      (** run cut at a failed {!Program.retry} iteration: it read a store
          that another store had overwritten, at its end or later. The
          run without that iteration is another branch *)

type run_result = {
  exec : C11.Execution.t;
  annots : annot list;  (** in recording order *)
  bugs : Bug.t list;  (** built-in detections, in commit order *)
  outcome : outcome;
  switches : int;
      (** Fiber suspensions performed: every visible operation a thread
          reaches, plus, in a session, the pause each restore-replayed
          thread ends on. Counts since the state was created — per run
          under {!run}, cumulative across a session. *)
  inline_ops : int;
      (** Invisible operations committed inside the dispatch hook
          without suspending the fiber; visible operations never are.
          Same accumulation as [switches]. *)
}

(** [run ~config ~trace main] executes [main] as thread 0.

    [pick], when given, decides the initial index of every *fresh*
    decision point (one the replayed [trace] prefix does not cover); the
    chosen index is recorded in [trace] as usual, so the completed trace
    replays the run deterministically. Out-of-range picks are clamped to
    0. Without [pick] fresh points take index 0 — the DFS explorer's
    convention. Sampled indices carry no "explored siblings" meaning, so
    runs with [pick] contribute nothing to sleep sets; the fuzzer
    disables sleep sets entirely (they would mis-prune under random
    choice).

    [prune], when given, is consulted at every *fresh* non-trivial
    scheduling decision point with the point's {!prune_key}; returning
    [true] aborts the run with outcome {!Pruned_equiv} (the caller has
    already fully explored an identical state, so the subtree can only
    repeat known graphs). When it returns [false] the key is recorded in
    the decision's [state] field so the caller can close it on
    backtrack. Sessions take the same hook; it is meaningless under
    [pick]. *)
val run :
  ?pick:(decision -> int) ->
  ?prune:(prune_key -> bool) ->
  config:config ->
  trace:decision C11.Vec.t ->
  (unit -> unit) ->
  run_result

(** {1 Sessions}

    A session runs a whole DFS exploration over one persistent state and
    one arena-backed execution graph. Where {!run} rebuilds everything
    from action zero on every call, {!session_run} restores the
    snapshot captured at the bumped decision's step: the graph rewinds by
    arena-watermark truncation ({!C11.Execution.restore}), scheduler
    scalars come back from O(threads)-sized saved copies, and only the
    program closures are re-run — in a replay mode that feeds each
    thread the logged values its operations returned, skipping all graph
    work (OCaml effect continuations are one-shot, so closures cannot be
    resumed twice; replaying their values is what makes restore sound,
    by the same determinism contract that underpins trace replay).

    Sessions follow the DFS explorer's backtracking contract: between
    two [session_run] calls the caller must have advanced the trace with
    {!Explorer.backtrack} semantics — trailing decisions popped, the now-
    last decision's [chosen] bumped, nothing before it touched.

    The [run_result.exec] a session returns is the session's single
    arena: it is valid until the next [session_run] and must be copied
    ({!C11.Execution.copy}) to be retained beyond that. *)

type session

(** [session_create ?prune ~config ~trace main]: [prune] and [config] as
    in {!run} ([pick] is meaningless under DFS sessions). A non-empty
    [trace] (a donated work-item prefix) replays through the normal
    commit path on the first run. *)
val session_create :
  ?prune:(prune_key -> bool) ->
  config:config ->
  trace:decision C11.Vec.t ->
  (unit -> unit) ->
  session

(** Run the next execution of the search: the first call runs the trace
    from scratch; later calls restore to the backtracked trace's last
    decision and continue from there. *)
val session_run : session -> run_result

(** End the search: free the fibers of threads the last run left
    suspended. The session must not be run again. *)
val session_close : session -> unit

(** [(snapshots, restores)] taken/performed so far. *)
val session_counters : session -> int * int

(** The session's arena graph (same object every run). *)
val session_exec : session -> C11.Execution.t
