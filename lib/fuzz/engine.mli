(** C11Tester-style randomized exploration.

    Where {!Mc.Explorer} enumerates the decision tree exhaustively by
    DFS, this engine samples each scheduling / reads-from decision from a
    seeded, biased PRNG, in one sampling {!Mc.Scheduler.session} whose
    run [i] restarts from the root with the sampler for [(seed, i)],
    until an execution cap or a [stop] callback ends it. A run is fully
    identified by its list of chosen decision indices, so every reported
    bug ships with a seed and a delta-debugged, minimized index trace
    that reproduces it deterministically via {!replay}.

    Determinism contract: execution [i] of seed [s] depends only on
    [(s, i)] and the program, so [run ~seed] with the same
    [max_executions] (and no [stop]) reports identical bug lists,
    coverage counts and minimized traces on every host. A deadline
    [stop] trades that for wall-clock control. *)

type config = {
  scheduler : Mc.Scheduler.config;
      (** [sleep_sets] is ignored: a sampling session runs with sleep
          sets off, so callers pass a benchmark's scheduler as it is.
          Sleep sets encode "earlier siblings were explored", which is
          false under random sampling and would mis-prune. *)
  bias : Bias.policy;
  max_executions : int option;  (** stop after this many runs *)
  stop_on_first_bug : bool;  (** return as soon as any bug is found *)
  minimize : bool;  (** delta-debug each new bug's trace before reporting *)
}

(** [Prefer_stale_rf] bias, 10_000 executions, minimization on. With
    [max_executions = None] only [stop] ends a campaign on a bug-free
    program. *)
val default_config : config

type stats = {
  executions : int;
  feasible : int;  (** complete, consistent executions *)
  pruned_loop_bound : int;
  pruned_retry : int;  (** runs cut at a failed {!Mc.Program.retry} iteration *)
  pruned_max_actions : int;
  buggy : int;  (** feasible executions on which at least one bug fired *)
  coverage : int;
      (** distinct {!C11.Execution.fingerprint} values seen: the same
          hash the exhaustive explorer's equivalence pruning and
          [distinct_graphs] use, so coverage is comparable with an
          exhaustive run, with one caveat. The hash also tells apart the
          SC order of seq_cst actions on different locations and the ids
          that concurrent [malloc]s receive, and sleep sets explore only
          one order of such independent operations. So a campaign (sleep
          sets off) covers a subset of the graph set of an exhaustive run
          with sleep sets {e off}, which can be larger than the default
          run's [distinct_graphs]. *)
  minimization_replays : int;  (** extra executions spent shrinking traces *)
  time : float;  (** monotonic wall-clock seconds, including minimization *)
  time_to_first_bug : float option;  (** seconds from start to first buggy run *)
  truncated : bool;
      (** stopped by [stop] or [stop_on_first_bug] before
          [max_executions] ran *)
  check : Mc.Explorer.check_counters;
      (** end-of-campaign snapshot of the checking hook's counters
          (cache hits/misses and truncation warnings); all zero when no
          [check] callback was supplied to {!run} *)
}

(** One deduplicated bug with its reproduction recipe. *)
type found = {
  bug : Mc.Bug.t;
  execution : int;  (** index of the run that found it: replays as [(seed, index)] *)
  trace : int list;  (** decision indices of the finding run *)
  minimized : int list;  (** shrunk trace; never longer than [trace] *)
}

type result = {
  seed : int;
  bias : Bias.policy;
  stats : stats;
  found : found list;  (** deduplicated by {!Mc.Bug.key}, discovery order *)
  graphs : int64 list;
      (** sorted distinct {!C11.Execution.fingerprint} values seen — the
          campaign's coverage set: a subset of the [graphs] of an
          exhaustive exploration with sleep sets off (same canonical
          fingerprint), but not necessarily of one with sleep sets on,
          which explores one order of independent operations that the
          fingerprint tells apart *)
  first_buggy_exec : C11.Execution.t option;
      (** the first buggy execution ({!C11.Execution.pp} prints its
          action log) *)
}

(** [run ~seed main] fuzzes [main]. [on_feasible] has the same signature
    and contract as {!Mc.Explorer.explore}'s: it runs on every complete
    execution with no built-in bug, so the spec checker's hook plugs in
    unchanged. [check] is snapshotted once at the end of the campaign
    into [stats.check] (note that minimization replays also go through
    [on_feasible], so their cache hits count too). [stop] is polled after
    every run short of the cap; [true] ends the campaign as [truncated]. *)
val run :
  ?config:config ->
  ?on_feasible:(C11.Execution.t -> Mc.Scheduler.annot list -> Mc.Bug.t list) ->
  ?check:(unit -> Mc.Explorer.check_counters) ->
  ?stop:(unit -> bool) ->
  seed:int ->
  (unit -> unit) ->
  result

(** [replay ?scheduler ?on_feasible ~decisions main] re-executes the run
    identified by [decisions] (missing decisions default to index 0,
    out-of-range ones clamp) as the one run of a fresh sampling session,
    and returns the scheduler result plus the bugs of that single run —
    built-in bugs, or [on_feasible]'s findings when there are none. The
    result's graph stays valid: the session is never run again. *)
val replay :
  ?scheduler:Mc.Scheduler.config ->
  ?on_feasible:(C11.Execution.t -> Mc.Scheduler.annot list -> Mc.Bug.t list) ->
  decisions:int list ->
  (unit -> unit) ->
  Mc.Scheduler.run_result * Mc.Bug.t list

(** Repackage a fuzz result as an {!Mc.Explorer.result} so downstream
    consumers of the exhaustive explorer (report printers, the harness)
    work on fuzz campaigns unchanged. [pruned_sleep_set] is 0 by
    construction. *)
val explorer_result : result -> Mc.Explorer.result

(** ["3.0.1.2"]-style rendering of a decision trace, and its inverse
    (for passing reproducers on a command line). *)
val trace_to_string : int list -> string

val trace_of_string : string -> int list option
