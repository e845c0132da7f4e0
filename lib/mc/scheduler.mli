(** Runs the executions of a DSL program in a {!session}, each under a
    recorded choice trace that it extends at new decision points. The
    explorer backtracks over these traces; the fuzzer samples them.

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
          reaches, plus the pause each restore-replayed thread ends on.
          Counts since the session was created: cumulative across its
          runs. *)
  inline_ops : int;
      (** Invisible operations committed inside the dispatch hook
          without suspending the fiber; visible operations never are.
          Same accumulation as [switches]. *)
}

(** Raised by {!session_run} when a run departs from its recorded
    trace: a replayed decision is of another kind, has another arity,
    lists other candidate threads or has its chosen index out of range,
    or the run completes with recorded decisions left unconsumed. A
    search never raises it on its own trace, whose runs are determined
    by their decision paths; it marks a trace recorded against another
    program (a stale store witness, say). *)
exception Diverged

(** {1 Sessions}

    Every execution runs in a session: one persistent state and one
    arena-backed execution graph, with [main] as thread 0. The first
    {!session_run} commits every action from action zero along [trace].
    Before each later one the caller either advances the trace with
    {!Explorer.backtrack} semantics (trailing decisions popped, the
    now-last decision's [chosen] bumped, nothing before it touched), and
    the session restores the snapshot captured at that decision's step;
    or empties the trace, and the session restores its root snapshot,
    taken before the first step, and runs from action zero. A restore
    rewinds the graph by arena-watermark truncation
    ({!C11.Execution.restore}), brings the scheduler scalars back from
    O(threads)-sized copies, and re-runs only the program closures, in
    a replay mode that feeds each thread the logged values its
    operations returned (OCaml continuations are one-shot; replaying
    values is sound by the determinism contract trace replay rests on).

    A session created with [pick] is a sampling session (the fuzzer's):
    each run after the first starts from an emptied trace, sleep sets
    are off whatever [config] says (a sampled index says nothing about
    its siblings, which a sleep set would read as explored), and no step
    snapshot is captured, since only the root is ever restored.

    [run_result.exec] is the session's single arena: valid until the
    next [session_run], and copied ({!C11.Execution.copy}) to be kept
    longer. *)

type session

(** [session_create ?pick ?prune ~config ~trace main]. [pick], when
    given, chooses the initial index of every {e fresh} decision point
    (one the [trace] prefix does not cover), recorded in [trace] as
    usual, so the completed trace replays the run; out-of-range picks
    clamp to 0. Without it fresh points take index 0, the DFS
    convention. [prune], when given, sees the {!prune_key} of every
    fresh non-trivial scheduling point: [true] aborts the run with
    {!Pruned_equiv} (an identical state was fully explored), [false]
    records the key in the decision's [state] for the caller to close
    on backtrack; it is meaningless under [pick]. A non-empty [trace]
    (a donated work-item prefix) replays through the normal commit path
    on the first run. *)
val session_create :
  ?pick:(decision -> int) ->
  ?prune:(prune_key -> bool) ->
  config:config ->
  trace:decision C11.Vec.t ->
  (unit -> unit) ->
  session

(** Run the next execution: from action zero on the first call or after
    the caller emptied the trace, else from the backtracked trace's last
    decision. *)
val session_run : session -> run_result

(** End the search: free the fibers of threads the last run left
    suspended. The session must not be run again. *)
val session_close : session -> unit

(** [(snapshots, restores)] taken/performed so far. *)
val session_counters : session -> int * int

(** The session's arena graph (same object every run). *)
val session_exec : session -> C11.Execution.t
