(** The CDSSpec checking pass run on every feasible execution (paper
    section 5.2): extract the method calls and the ordering relation,
    check admissibility, replay every valid sequential history against
    the equivalent sequential data structure, and require every
    non-deterministic behaviour to be justified by some justifying
    subhistory (or by the CONCURRENT set, which the justifying predicates
    may consult).

    History replay shares prefixes: instead of materializing every
    linear extension of ⊑r and replaying each from scratch, the checker
    walks the topological-sort tree once, threading the persistent
    sequential state down the recursion, and replays a set of calls
    that already reached the same sequential state in another order
    only once ({!C11.Relation.walk_linear_extensions} merges equal
    (down-set, state) nodes). {!Spec} states must therefore be
    persistent values, hashed and compared structurally: immutable data
    without closures, and every spec function deterministic in its
    arguments — see HACKING.md.

    Both walks visit linear extensions in
    {!C11.Relation.walk_linear_extensions}' child order, which is
    lexicographic in call id, and charge one unit of budget per complete
    extension: [max_histories] per sequential history, [max_prefixes]
    per justifying subhistory of one call, accepted or not. So an
    assertion violation names the first failing history in that order
    (its failing prefix completed by {!C11.Relation.any_topological_sort})
    and the call that failed in it. A check is truncated when a walk
    reaches its cap before a verdict: more than [max_histories]
    histories and none of the first [max_histories] failing, or more
    than [max_prefixes] justifying subhistories for a call and none of
    the first [max_prefixes] accepting. *)

type config = {
  max_histories : int;
      (** truncate exhaustive enumeration of sequential histories *)
  sample_histories : (int * int) option;
      (** [(count, seed)]: randomly sample instead of exhausting — the
          checker's "check a user-customized number of histories" option.
          Each sampled history is replayed from the initial state. *)
  max_prefixes : int;  (** cap on justifying subhistories per call *)
  strict_histories : bool;
      (** report a [`Truncated] violation when an enumeration cap was
          hit (a capped check is only a partial proof); otherwise the
          truncation is surfaced only through the {!cache} counters *)
}

val default_config : config

type violation = {
  kind : [ `Admissibility | `Assertion | `Unjustified | `Cyclic_ordering | `Truncated ];
  message : string;
}

(** {2 Cross-execution check cache}

    Distinct executions routinely induce the same per-object check
    instance (same calls, same ordering relation up to dense id
    renumbering); the cache memoizes verdicts across them, keyed on
    {!fingerprint}. It is domain-safe (a single mutex guards the table
    and counters; the check itself runs outside the lock) and is meant
    to live for one exploration run under one [config] — never share a
    cache across different configs or specs. *)

type cache

(** [create_cache ()] makes an empty cache. [~memoize:false] disables
    the verdict table but keeps every counter, so hit/miss/truncation
    accounting still flows to {!cache_counters} — this is the
    [--no-check-cache] path. *)
val create_cache : ?memoize:bool -> unit -> cache

(** Snapshot the counters in the shape {!Mc.Explorer.stats} carries
    ([cache_entries] is the current table size; the truncation counters
    count per-object check instances whose enumeration hit a cap,
    including cached ones). *)
val cache_counters : cache -> Mc.Explorer.check_counters

(** One memoized verdict, in serializable form — what the persistent
    cross-run store saves and restores. [entry_key] is the
    {!fingerprint} string; the truncation flags record whether this
    verdict was computed under a hit enumeration cap (a warm run must
    re-surface the same truncation warnings a cold run would). *)
type cache_entry = {
  entry_key : string;
  entry_verdict : violation list;
  entry_h_trunc : bool;
  entry_p_trunc : bool;
}

(** Snapshot every memoized verdict (unspecified order). *)
val export_entries : cache -> cache_entry list

(** Preload verdicts from an earlier run of the identical spec/config.
    Existing keys are kept, hit/miss counters are untouched (preloading
    is neither), and the call is a no-op on a [~memoize:false] cache. *)
val import_entries : cache -> cache_entry list -> unit

(** Canonical fingerprint of one per-object check instance: the calls
    in dense-id order (name, args, C_RET, tid) plus the reachability
    closure of the ordering relation. Exposed for the tests. *)
val fingerprint : C11.Relation.t -> Call.t list -> string

(** Admissibility findings for one object's calls under ⊑r (both
    orientations of every rule are checked, mirror findings
    deduplicated). Exposed for the regression tests. *)
val check_admissibility :
  'st Spec.t -> C11.Relation.t -> Call.t list -> violation list

(** Check one execution; the empty list means the specification holds. *)
val check_execution :
  ?config:config ->
  ?cache:cache ->
  Spec.packed ->
  C11.Execution.t ->
  Mc.Scheduler.annot list ->
  violation list

(** [hook spec] packages {!check_execution} as an [Explorer.explore]
    [on_feasible] callback, mapping violations to
    {!Mc.Bug.Spec_violation}s. *)
val hook :
  ?config:config ->
  ?cache:cache ->
  Spec.packed ->
  C11.Execution.t ->
  Mc.Scheduler.annot list ->
  Mc.Bug.t list
