(** Exhaustive exploration: depth-first search over the choice tree
    (scheduling choices × reads-from choices), as CDSChecker does, run in
    one {!Scheduler.session} that rewinds its arena-backed graph by
    snapshot restore on each backtrack instead of re-running the program
    prefix — augmented with execution-graph equivalence pruning, so each
    *behaviour* is visited once rather than each *interleaving*. The
    reference DFS the tests compare it with, [Oracle.Explorer] in
    [test/oracle], runs each execution as a fresh session's first run. *)

type config = {
  scheduler : Scheduler.config;
  max_executions : int option;  (** stop after this many runs; None = exhaust *)
  progress : (int -> unit) option;  (** called with the run count periodically *)
  prune : bool;
      (** equivalence pruning (default on): cut a decision subtree whose
          canonical state key ({!Scheduler.prune_key} — graph fingerprint
          + sleep set) matches an already fully-explored decision point,
          and skip [on_feasible] on repeated execution graphs. The set of
          distinct feasible graphs, the deduplicated bug list and the
          checker verdicts are unchanged; [explored]-style counters
          shrink (that is the point). [--no-prune] in [cdsspec_run] maps
          to [false]. *)
  engine : [ `Arena ];
      (** one value, read by nothing: kept only because the benchmark
          passes it on *)
}

val default_config : config

(** Counters reported by the per-execution checking hook (the cdsspec
    checker's cross-execution cache and truncation warnings). The
    explorer itself never bumps these: the [check] snapshot callback
    passed to {!explore} reads them from whoever owns the counters (see
    [Cdsspec.Checker.cache_counters]). [histories_truncated] /
    [prefixes_truncated] count object checks whose sequential-history /
    justifying-subhistory enumeration hit its cap — i.e. checks that
    silently passed on an unchecked remainder unless strict mode turned
    them into failures. *)
type check_counters = {
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  histories_truncated : int;
  prefixes_truncated : int;
}

(** All-zero counters: what [stats.check] holds when no snapshot
    callback was supplied. *)
val no_check_counters : check_counters

type stats = {
  explored : int;  (** total runs, feasible + pruned *)
  feasible : int;  (** complete, consistent executions *)
  pruned_loop_bound : int;
  pruned_max_actions : int;
  pruned_sleep_set : int;
  pruned_equiv : int;
      (** runs cut by equivalence pruning: their decision-point state key
          matched an already fully-explored one *)
  pruned_retry : int;
      (** runs cut at a failed {!Program.retry} iteration
          ({!Scheduler.Pruned_retry}) *)
  distinct_graphs : int;
      (** distinct feasible execution graphs, by canonical fingerprint
          ({!C11.Execution.fingerprint}); the coverage denominator
          [pruned_equiv] trades interleavings against. The fingerprint
          distinguishes the SC order of seq_cst actions on different
          locations and the ids concurrent allocations receive, while
          sleep sets explore one order of such independent operations:
          with [sleep_sets] on this counts the graphs of the orders
          explored, and the same program with sleep sets off can count
          more (the set a fuzz campaign's coverage is a subset of) *)
  buggy : int;  (** feasible executions on which at least one bug fired *)
  truncated : bool;  (** true when max_executions stopped the search *)
  time : float;
      (** wall-clock seconds, measured with the monotonic clock and
          excluding time spent inside the [progress] callback *)
  minor_words : float;
      (** minor-heap words allocated by this domain during the search
          ([Gc.minor_words] delta, exact to the word); divide by
          [explored] for the allocation per execution *)
  snapshots : int;  (** arena snapshots captured *)
  restores : int;  (** arena snapshot restores *)
  commits : int;
      (** actions committed through the {!C11.Execution} commit path
          during the search, including re-commits after a restore
          ({!C11.Execution.commit_count}) — the commit-kernel phase's
          work unit *)
  fiber_switches : int;
      (** fiber suspensions ({!Scheduler.run_result.switches} totalled
          over the search): every visible operation the programs
          reached, plus the pause each restore-replayed thread ends on *)
  inline_ops : int;
      (** invisible operations committed inside the dispatch hook
          without suspending ({!Scheduler.run_result.inline_ops}
          totalled); visible operations always suspend *)
  rf_queries : int;
      (** rf-candidate floor queries ({!C11.Execution.rf_counters})
          answered during the search *)
  rf_fast : int;
      (** always 0. It counted the answers of a memoized floor that
          the rf kernel no longer has; kept only because the benchmark
          reads it *)
  rf_rejected : int;
      (** stores rejected {e before} replay by candidate filtering —
          the pre-replay half of the pruning ledger; the post-replay
          half is the [pruned_*] counters above *)
  check : check_counters;
      (** snapshot of the checking hook's counters at the end of the
          search ({!no_check_counters} when none was supplied) *)
}

(** All-zero stats with no truncation and {!no_check_counters}: the
    base for results built by hand ([{ no_stats with explored = 1 }]). *)
val no_stats : stats

(** A run that reported a bug key no earlier run of the search had: the
    keys it added, in its report order, and a copy of its decision path,
    which replays it ({!explore_subtree} with the path as a frozen
    trace). *)
type witness = { keys : string list; path : Scheduler.decision array }

type result = {
  stats : stats;
  bugs : Bug.t list;  (** deduplicated by {!Bug.key}, discovery order *)
  first_buggy_exec : C11.Execution.t option;
      (** the first buggy execution graph, for {!C11.Execution.pp} (its
          action log) or {!C11.Dot} rendering *)
  graphs : int64 list;
      (** sorted canonical fingerprints of every distinct feasible
          execution graph — what the pruned-vs-unpruned differential
          tests compare, and what {!Parallel} unions across subtrees *)
  closed : Scheduler.prune_key list;
      (** decision-point states whose subtrees this search fully explored
          (the keys equivalence pruning armed itself with, in no
          particular order). The persistent cross-run store saves these so
          a later run of the identical program/config can preload them via
          [warm] and skip the corresponding subtrees. Empty with
          [config.prune] off. *)
  witnesses : witness list;
      (** one per run that reported a new bug key, in discovery order:
          the first is the run of [first_buggy_exec], and replaying them
          in order rebuilds [bugs]. The persistent store saves them so a
          hit on a buggy entry can replay the buggy runs *)
}

(** Copy a decision record: decision records are mutated by {!backtrack},
    so a prefix handed to another explorer — a parallel work item, or a
    stolen subtree — must own its records or explorers would race on the
    chosen index. The candidates array is immutable after creation and is
    shared, keeping donations O(prefix) record headers. *)
val copy_decision : Scheduler.decision -> Scheduler.decision

(** [backtrack ?frozen ?close trace] advances [trace] to the next
    unexplored branch: drops exhausted trailing decisions and bumps the
    deepest one with alternatives left, returning [false] once the
    (sub)tree is exhausted. The first [frozen] decisions (default 0) are
    never flipped or popped — they pin a subtree, which is how
    {!Parallel} partitions the decision tree into independent work items.
    [close] is called with the state key of every popped scheduling
    decision: popping means its subtree is fully explored, which is what
    arms equivalence pruning against that state. *)
val backtrack :
  ?frozen:int -> ?close:(Scheduler.prune_key -> unit) -> Scheduler.decision C11.Vec.t -> bool

(** [explore ~config ?on_feasible main] enumerates the behaviours of
    [main]. [on_feasible] runs on every complete bug-free execution (the
    specification checker hooks in here) and returns any violations it
    finds, which are recorded like built-in bugs; under [config.prune] it
    is skipped on repeated execution graphs (an identical graph yields
    identical verdicts). [check], when given, is called once at the end
    of the search and its snapshot lands in [stats.check] — the checking
    hook's counter export.

    [stop] is polled once after every run (after it is counted);
    returning [true] ends the search, marked [truncated] as the
    [max_executions] cap does. {!Parallel.explore} takes the same
    [stop] at any [jobs].

    [warm], when given, is a read-only set of decision-point states
    proven fully explored by an earlier run of the *identical*
    program/config (a prior run's [result.closed], persisted by the
    cross-run store). It is consulted by equivalence pruning alongside
    the run's own visited table but never written; a warm run therefore
    re-discovers only the graphs reachable without entering a
    previously-closed subtree, and the caller is responsible for merging
    the stored graph set back in. Safety is by construction: if the
    program changed, no warm key matches any fresh state and the search
    degrades to a plain cold exploration. Ignored when [config.prune] is
    off. *)
val explore :
  ?config:config ->
  ?on_feasible:(C11.Execution.t -> Scheduler.annot list -> Bug.t list) ->
  ?check:(unit -> check_counters) ->
  ?stop:(unit -> bool) ->
  ?warm:(Scheduler.prune_key, unit) Hashtbl.t ->
  (unit -> unit) ->
  result

(** [explore_subtree ~trace ~frozen main] is {!Parallel}'s work-item
    driver: the DFS underlying {!explore}, seeded with an explicit
    decision [trace] whose first [frozen] decisions are pinned, so only
    the subtree below that prefix is enumerated. Callers outside [Mc]
    explore through {!Parallel.explore} (or {!explore}). [stop] is as in
    {!explore}; the parallel explorer also enforces its global execution
    cap through it.

    [want_split]/[on_split] are the work-stealing donation hooks: after
    every successful backtrack, if [want_split ()] holds (the pool has
    idle domains), the shallowest level >= the current frozen depth with
    unexplored sibling branches is donated — [on_split ~key ~prefix
    ~frozen] receives a self-contained deep-copied decision prefix
    pinning those siblings, plus its canonical [key] (the chosen-index
    path, which is its DFS position — lexicographic key order is
    subtree DFS order), and the donor freezes that level so it never
    re-enters what it gave away. Everything a donor subsequently
    explores or donates is DFS-before the donated subtree.

    [explore] is [explore_subtree ~trace:(Vec.create ()) ~frozen:0]. *)
val explore_subtree :
  ?config:config ->
  ?on_feasible:(C11.Execution.t -> Scheduler.annot list -> Bug.t list) ->
  ?check:(unit -> check_counters) ->
  ?stop:(unit -> bool) ->
  ?want_split:(unit -> bool) ->
  ?on_split:(key:int list -> prefix:Scheduler.decision array -> frozen:int -> unit) ->
  ?warm:(Scheduler.prune_key, unit) Hashtbl.t ->
  trace:Scheduler.decision C11.Vec.t ->
  frozen:int ->
  (unit -> unit) ->
  result
