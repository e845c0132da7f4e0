(** Persistent cross-run result store: the disk half of
    checking-as-a-service.

    A store is a directory of binary entry files, each holding the
    artifacts of one clean checked exploration — the distinct-graph
    fingerprint set, the closed prune keys ({!Mc.Explorer.result}
    [closed]), the memoized check-cache verdicts and, for a run stopped
    by its execution cap, that cap. Entries are keyed by a canonical
    fingerprint of everything the result is a function of: the program
    identity (benchmark + test name), the full per-site memory-order
    table, the scheduler bounds, the explorer and checker configs.

    Soundness rests on two rules, both coarse by design:

    - {b Engine-rev flush}: the directory records
      {!Mc.Engine_rev.current}; on any mismatch {!open_dir} deletes every
      entry wholesale. Invalidation is coarse and safe, never clever and
      wrong — a semantics change anywhere in the engine costs one cold
      rebuild, not a wrong verdict.
    - {b Clean only, caps scoped}: {!explore_checked} saves entries only
      for bug-free, pruning-on runs — a warm hit never has to reproduce
      serialized bugs; the stored verdict is "clean" and the warm run
      re-derives everything else. Complete runs save, except a warm
      hit on a complete entry that added nothing to it, which leaves
      the file as it is. A clean run truncated by its execution cap
      saves under a [partial] flag recording the cap: its closed prune
      keys are genuinely fully-explored subtrees, but the entry as a
      whole is incomplete, so it only warms later runs whose cap is at
      most the stored one (anything larger is treated as a miss), is
      never allowed to overwrite a complete entry, and is upgraded in
      place the first time a run under its key explores to completion.
      Runs truncated by a [stop] callback (client cancellation) are
      never saved — the store cannot tell how far they got.

    Corruption is handled the same way: an entry that fails its length,
    magic, trailing-hash or key-echo check is deleted and reported as a
    miss, never trusted. *)

type t

(** [open_dir dir] creates [dir] if needed, then validates its [meta]
    file: a missing, malformed, or engine-rev-mismatched meta flushes
    every entry and rewrites meta for the current engine. Raises
    [Sys_error] when [dir] cannot be used as a store directory (a
    regular file, say). *)
val open_dir : string -> t

val dir : t -> string

(** Lookup/decode accounting since [open_dir]. [corrupt] counts entries
    deleted because they failed a decode check. *)
type stats = { mutable hits : int; mutable misses : int; mutable corrupt : int }

val stats : t -> stats

(** {2 Keys and entries} *)

(** Canonical job key: carries both the human-readable description
    string and its fingerprint (the entry filename). *)
type key

(** The key of one [check] job. It describes the bench, test, ords
    table, scheduler bounds, [prune], [engine], the checker config and
    [use_cache]. [kind] and [max_execs] are not part of it: there is one
    entry kind, and a run's cap lives in the entry's [partial] field. *)
val job_key :
  kind:[ `Check ] ->
  bench:string ->
  test:string ->
  ords:(string * C11.Memory_order.t) list ->
  sched:Mc.Scheduler.config ->
  prune:bool ->
  engine:[ `Arena | `Legacy ] ->
  max_execs:int option ->
  checker:Cdsspec.Checker.config ->
  use_cache:bool ->
  key

(** The fingerprint in hex — the entry's filename stem; exposed for the
    tests and the serve protocol's job echo. *)
val fingerprint : key -> string

type entry = {
  graphs : int64 list;  (** sorted canonical execution-graph fingerprints *)
  closed : Mc.Scheduler.prune_key list;
      (** fully-explored decision-point states — a later identical run
          preloads these as the explorer's [warm] set *)
  check_entries : Cdsspec.Checker.cache_entry list;
      (** the check cache's memoized verdicts, preloaded on a hit *)
  partial : int option;
      (** [None]: the run explored to completion. [Some cap]: a clean
          run truncated by [max_execs = cap]; sound but incomplete, and
          only warm-loaded by runs capped at [<= cap] *)
}

(** [None] on absent, corrupt (deleted, counted) or key-collision
    entries.

    The file is read on every call; its bytes are compared with the
    handle's resident copy of the entry, and only bytes that differ are
    decoded (and become the resident copy). Another process's rewrite,
    corruption or deletion of the entry is therefore seen by the next
    [load], exactly as if nothing were kept in memory. *)
val load : t -> key -> entry option

(** Atomic entry write: to a temp file unique to the writer (process,
    domain, counter), then renamed into place, so concurrent saves of one
    key each land whole and the last rename wins. The written bytes
    become the handle's resident copy. *)
val save : t -> key -> entry -> unit

(** {2 Resident table}

    Each handle keeps recently loaded or saved entries in memory, keyed
    by fingerprint: the raw file bytes, the decoded entry and its closed
    keys as a read-only warm table. Its raw bytes are capped at
    {!resident_cap}; inserting past the cap evicts other entries, and an
    entry larger than the cap is never kept. *)

val resident_cap : int

(** Raw bytes currently resident, at most {!resident_cap}. *)
val resident_bytes : t -> int

(** {2 Checked exploration through the store} *)

(** [explore_checked ?store ... b ~ords t] is the one checked-exploration
    path shared by [cdsspec_run check] (with or without [--store]), the
    serve daemon, the paper's tables ({!Harness.Experiments}) and the
    benchmarks: build a check cache, consult the store, explore, check,
    and save back.

    On a store hit the entry's closed prune keys become the explorer's
    [warm] set and its memoized verdicts preload the check cache, so the
    exploration collapses to the handful of runs needed to re-prune each
    closed subtree at its root; the stored graph set is merged back into
    the result, making graphs, bugs and verdicts identical to the cold
    run's. On a miss (or with no store) this is exactly the cold path.

    A hit on a complete entry whose run added no closed prune key, graph
    fingerprint or check-cache verdict — the usual warm hit — writes
    nothing: the result carries the stored graph and closed-key lists
    as they are, and the entry file is left untouched.

    [stop] forces a serial exploration polled per run (the serve daemon
    cancels abandoned jobs this way); [jobs] is used otherwise.

    Check keys are cap-agnostic ([max_execs] is not part of the key):
    clean-but-capped runs save partial entries scoped by their cap, a
    partial entry only warms runs whose cap is at most the stored one,
    and the first completing run upgrades the entry in place. Stopped
    and buggy runs are never saved. Returns the result plus the store
    disposition ([`Miss] includes a stored entry rejected for a
    too-large cap). *)
val explore_checked :
  ?store:t ->
  ?stop:(unit -> bool) ->
  ?progress:(int -> unit) ->
  checker:Cdsspec.Checker.config ->
  use_cache:bool ->
  max_execs:int option ->
  jobs:int ->
  prune:bool ->
  engine:[ `Arena | `Legacy ] ->
  Structures.Benchmark.t ->
  ords:Structures.Ords.t ->
  Structures.Benchmark.test ->
  Mc.Explorer.result * [ `Off | `Miss | `Hit ]
