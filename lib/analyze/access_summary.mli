(** Per-site dynamic facts aggregated across all feasible executions of a
    benchmark's unit tests: the fact base the {!Lint} rules and the
    {!Weaken} advisor consume.

    The collector re-runs each unit test under the exhaustive explorer
    (or {!Mc.Parallel} when [jobs > 1]) with an [on_feasible] hook that
    walks every complete, builtin-bug-free execution graph and folds its
    edges into per-site counters. Racy or otherwise buggy executions
    never reach the hook; their reports surface through [bugs]/[races]
    instead, which the lint turns into an error-severity finding.
    Executions are checked under {!Cdsspec.Checker.default_config}. *)

type config = {
  max_executions : int option;  (** per unit test; [None] exhausts *)
  time_budget : float option;
      (** overall wall-clock budget for the whole collection; checked
          between tests (and per run when [jobs = 1]) *)
  jobs : int;  (** [> 1] explores each test with {!Mc.Parallel} *)
}

val default_config : config

(** Facts about one declared [Ords] site, summed over every feasible
    execution of every unit test. *)
type site_summary = {
  site : Structures.Ords.site;
  occurrences : int;  (** committed actions carrying this site label *)
  executions : int;  (** feasible executions in which the site appears *)
  release_writes : int;  (** occurrences that were release-or-stronger writes *)
  sw_edges : int;
      (** synchronizes-with edges whose writer is this site (an acquire
          read observed a release sequence this write heads or extends) *)
  sw_carried : int;
      (** sw edges that carried a happens-before obligation the reader
          did not already have from program order *)
  acquire_reads : int;  (** occurrences that were acquire-or-stronger reads *)
  acquire_gained : int;
      (** acquire reads that actually learned something new (the read's
          clock strictly exceeds its program-order base) *)
  sc_ops : int;  (** occurrences that were seq_cst atomics or fences *)
  sc_constrained : int;
      (** sc ops with a concurrent (hb-unordered, other-thread) seq_cst
          partner on the same location — at least one of the pair a write
          or fence — i.e. the SC total order actually constrained them *)
  cross_thread_reads : int;
      (** times another thread read a value this site wrote *)
  relaxed_published : int;
      (** cross-thread reads of this site's writes where the write was
          weaker than release: the value crossed threads with no sw edge *)
  access_tids : int;
      (** distinct threads that ever touched a location this site
          touches (any access kind, sited or not) *)
  single_thread : bool;
      (** the site executed, and no location it touches ever saw a
          conflicting cross-thread access pair whose later access was
          not already ordered after the earlier one before its own
          acquire: the atomic is protected by other synchronization (or
          by being genuinely single-threaded) in every explored
          execution *)
  sample_exec : string option;
      (** pretty-printed first execution containing the site *)
  publish_evidence : (string * (int * int)) option;
      (** for [relaxed_published]: the evidence execution and the
          [(writer_id, reader_id)] edge within it *)
}

type method_summary = {
  method_name : string;
  calls : int;
  calls_with_op : int;  (** calls that recorded at least one ordering point *)
}

type rule_summary = {
  rule_first : string;
  rule_second : string;
  exercised : int;
      (** executions in which some hb/sc-unordered call pair matched the
          admissibility rule, i.e. its guard was actually consulted *)
}

(** A set of execution fingerprints that deliberately ignores memory
    orders: weakening one site rewrites the [mo] field of every action it
    emits, so the advisor's behaviour comparison must hash everything
    *except* orders (thread, kind, location, values, reads-from, commit
    order) or every candidate would trivially count as new behaviour. *)
type behaviour_set

val behaviour_set_create : unit -> behaviour_set

(** Record one execution's fingerprint (idempotent). *)
val behaviour_add : behaviour_set -> C11.Execution.t -> unit

val behaviour_cardinal : behaviour_set -> int

(** [(fresh, lost)] counts relative to [baseline]. *)
val behaviour_diff : baseline:behaviour_set -> candidate:behaviour_set -> int * int

type t = {
  bench : string;
  sites : site_summary list;  (** in declaration order *)
  methods : method_summary list;
  rules : rule_summary list;
  test_behaviours : (string * behaviour_set) list;
      (** per unit test, in declaration order — the advisor's baseline *)
  bugs : Mc.Bug.t list;  (** deduplicated, discovery order *)
  races : (string option * string option) list;
      (** sites of the racing action pairs behind any data-race bugs *)
  explored : int;
  feasible : int;
  buggy : int;
  truncated : bool;
  time : float;
}

(** [collect b] explores [b]'s unit tests under [ords] (default: the
    published table) and aggregates the fact base. Deterministic for
    [jobs = 1] with no budget. *)
val collect :
  ?config:config -> ?ords:Structures.Ords.t -> Structures.Benchmark.t -> t
