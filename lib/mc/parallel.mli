(** Parallel state-space exploration across OCaml 5 domains, by work
    stealing: the whole tree starts as one work item on a shared queue;
    whenever a domain is starving, a busy domain donates the shallowest
    unexplored sibling branches of its current DFS path as a new item
    and freezes that level, so donated subtrees are always DFS-after
    everything the donor keeps. The split adapts to the actual tree
    shape, so skewed trees stay balanced.

    Determinism contract: for exhaustive runs ([max_executions = None])
    with pruning off, [explore ~jobs:n] reports exactly the serial
    explorer's [stats] (modulo [time]) — work items partition the
    decision tree, and every run's outcome is a function of its decision
    path alone. With [config.prune] on, each work item keeps its own
    visited-state table, so [explored] and [pruned_equiv] depend on
    where the tree was split; the *semantic* outputs are still
    deterministic and identical to the serial pruned run: the
    distinct-graph set ([graphs] / [distinct_graphs]), the deduplicated
    bug list in the same order, the first buggy execution, and hence all
    checker verdicts. Both guarantees rest on merging per-subtree
    results in canonical prefix (DFS) order — work-item keys are
    chosen-index paths, and their lexicographic order is DFS order —
    never completion order. With a [max_executions] cap the global cut
    point depends on domain interleaving, so truncated parallel runs may
    differ from truncated serial runs. *)

(** [explore ?jobs main] explores like {!Explorer.explore}. [jobs <= 1]
    (the default) is exactly the serial explorer.

    [stop] holds at every [jobs]: each worker polls it, from its own
    domain, after every run. Once it returns [true] the pool halts, and
    the merged result is marked [truncated] as by the [max_executions]
    cap. A stop that turns true at its [n]th poll leaves at most
    [n + jobs - 1] runs.

    [check] is snapshotted exactly once, after every domain has joined,
    and lands in the merged [stats.check]: the checking hook's counters
    are shared across domains (the cdsspec check cache is domain-safe),
    so summing per-subtree snapshots would double-count.

    [warm] is a read-only set of decision-point states proven fully
    explored by an earlier run of the identical program/config (see
    {!Explorer.explore}); it is shared across all domains without a
    lock, which is safe because no explorer ever writes to it. The
    merged [closed] is the union of every subtree's closures — each is
    sound on its own, so the union is too. *)
val explore :
  ?config:Explorer.config ->
  ?on_feasible:(C11.Execution.t -> Scheduler.annot list -> Bug.t list) ->
  ?check:(unit -> Explorer.check_counters) ->
  ?stop:(unit -> bool) ->
  ?warm:(Scheduler.prune_key, unit) Hashtbl.t ->
  ?jobs:int ->
  (unit -> unit) ->
  Explorer.result

(** [merge ~t0 ~stopped ~check results] combines the results of
    searches over disjoint parts of one tree, given in DFS order — what
    {!explore} does with its work items. Stats are summed, with
    [truncated] set by [stopped] or by any result, [time] measured from
    [t0] and [check] as given. Graphs and closed keys are unioned; bugs
    are deduplicated by key in order; the first buggy execution is the
    first result's that has one; and a witness is kept unless every key
    it added was reported by an earlier result. *)
val merge :
  t0:float -> stopped:bool -> check:Explorer.check_counters -> Explorer.result list -> Explorer.result

(** {1 Resident domain pool}

    A long-lived pool of worker domains for callers that process many
    independent explorations over time — the serve daemon shards client
    jobs across one of these instead of paying a domain spawn per
    request. Tasks are plain thunks run FIFO. A task that raises is
    contained (logged to stderr, worker moves on), so one bad job never
    wedges the pool. Tasks that themselves call {!explore} with
    [jobs > 1] would nest domain pools; the intended pattern is
    job-level parallelism: each task explores serially ([jobs = 1]) and
    the pool provides the concurrency. *)

type pool

(** [pool_create ~jobs] spawns [max 1 jobs] worker domains, idle until
    tasks arrive. *)
val pool_create : jobs:int -> pool

(** Number of worker domains in the pool. *)
val pool_size : pool -> int

(** Enqueue a task. Raises [Invalid_argument] after {!pool_shutdown}. *)
val pool_submit : pool -> (unit -> unit) -> unit

(** Drain: workers finish all queued tasks, then exit and are joined.
    Blocks until every worker has terminated. *)
val pool_shutdown : pool -> unit
