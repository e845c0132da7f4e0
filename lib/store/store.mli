(** Persistent cross-run result store: the disk half of
    checking-as-a-service.

    A store is a directory of binary entry files, each holding the
    artifacts of one checked exploration — the distinct-graph
    fingerprint set, the closed prune keys ({!Mc.Explorer.result}
    [closed]), the memoized check-cache verdicts, for a clean run
    stopped by its execution cap that cap, and for a complete buggy run
    one replayable witness per bug. Entries are keyed by a canonical
    fingerprint of everything the result is a function of: the program
    identity (benchmark + test name), the full per-site memory-order
    table, the scheduler bounds, the prune flag and the checker config.

    Soundness rests on two rules, both coarse by design:

    - {b Engine-rev flush}: the directory records
      {!Mc.Engine_rev.current}; on any mismatch {!open_dir} deletes every
      entry wholesale. Invalidation is coarse and safe, never clever and
      wrong — a semantics change anywhere in the engine costs one cold
      rebuild, not a wrong verdict.
    - {b No verdict read from a file, caps scoped}: {!explore_checked}
      saves pruning-on runs, and no bug is ever read back from an
      entry. A complete buggy run saves its witnesses
      ({!Mc.Explorer.witness}): a hit replays each as one run on the
      running engine, which rebuilds the bug list and the first buggy
      execution exactly as the cold run produced them. Complete runs
      save, except a warm hit on a complete entry that added nothing to
      it, which leaves the file as it is. A clean run truncated by its
      execution cap saves under a [partial] flag recording the cap: its
      closed prune keys are genuinely fully-explored subtrees, but the
      entry as a whole is incomplete, so it only warms later runs whose
      cap is at most the stored one (anything larger is treated as a
      miss), is never allowed to overwrite a complete entry, and is
      upgraded in place the first time a run under its key explores to
      completion. A buggy run that was capped or stopped is never saved
      (there are no partial buggy entries), nor is any run truncated by
      a [stop] callback (client cancellation) — the store cannot tell
      how far it got. Within one process, a hit on bytes an earlier hit
      re-validated returns that hit's result ({!explore_checked},
      "Reuse"): every entry's first hit in every process re-validates
      it, and only the repeats go.

    Corruption is handled the same way: an entry that fails its length,
    magic, trailing-hash or key-echo check, or that has a witness that
    no longer replays, is deleted and reported as a miss, never
    trusted. *)

type t

(** [open_dir dir] creates [dir] if needed, then validates its [meta]
    file: a missing, malformed, or engine-rev-mismatched meta flushes
    every entry and rewrites meta for the current engine. Raises
    [Sys_error] when [dir] cannot be used as a store directory (a
    regular file, say). *)
val open_dir : string -> t

val dir : t -> string

(** Lookup/decode accounting since [open_dir]. [corrupt] counts entries
    deleted because they failed a decode check or a witness replay.
    [reused] counts the hits {!explore_checked} answered with the result
    of an earlier re-validation in this process (each is also a hit). *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable reused : int;
}

val stats : t -> stats

(** {2 Keys and entries} *)

(** Canonical job key: carries both the human-readable description
    string and its fingerprint (the entry filename). *)
type key

(** The key of one [check] job. It describes the bench, test, ords
    table, scheduler bounds ([loop_bound], [max_actions],
    [sleep_sets]), [prune], and the checker config ([sample_histories]
    and [strict_histories]). [kind] and [max_execs] are not part of it:
    there is one entry kind, and a run's cap lives in the entry's
    [partial] field. [engine] and [use_cache] are ignored too (there is
    one engine and one cache mode); they are kept, as [kind] and
    [max_execs] are, only because the benchmark passes them. *)
val job_key :
  kind:[ `Check ] ->
  bench:string ->
  test:string ->
  ords:(string * C11.Memory_order.t) list ->
  sched:Mc.Scheduler.config ->
  prune:bool ->
  engine:[ `Arena ] ->
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
  witnesses : Mc.Explorer.witness list;
      (** a complete buggy run's witnesses, one per run that reported a
          new bug key, in discovery order; [[]] for a clean run. A
          decision is stored as its chosen index plus its candidate tids
          (scheduling) or its arity (reads-from or CAS branch), which
          the replay compares with the live decision point *)
}

(** [None] on absent, corrupt (deleted, counted) or key-collision
    entries, and on anything at the entry path but a regular file (a
    FIFO is never waited on: every store file opens non-blocking).

    The file is read on every call. With a resident copy of the entry,
    the file is compared with its bytes in place, through a read buffer
    the handle reuses, after a size check from [fstat]; the whole file
    is read, and decoded (becoming the resident copy), only when there
    is no resident copy or the bytes differ. Another process's rewrite,
    corruption or deletion of the entry is therefore seen by the next
    [load], exactly as if nothing were kept in memory. *)
val load : t -> key -> entry option

(** Atomic entry write: to a temp file unique to the writer (process,
    domain, counter), then renamed into place, so concurrent saves of one
    key each land whole and the last rename wins. The written bytes
    become the handle's resident copy. A failed write raises
    [Sys_error "PATH: reason"], naming the entry's path whichever step
    failed (say, a directory at that path), and leaves no temp file. *)
val save : t -> key -> entry -> unit

(** {2 Resident table}

    Each handle keeps recently loaded or saved entries in memory, keyed
    by fingerprint: the raw file bytes, the decoded entry, its closed
    keys as a read-only warm table, and the result of the entry's last
    clean re-validation by {!explore_checked}, if any. Its raw bytes are
    capped at {!resident_cap}; inserting past the cap evicts other
    entries, and an entry larger than the cap is never kept. *)

val resident_cap : int

(** Raw bytes currently resident, at most {!resident_cap}. *)
val resident_bytes : t -> int

(** {2 Checked exploration through the store} *)

(** The execution cap of a [check] that names none: [cdsspec_run check]'s
    [--max-executions] default, and the serve daemon's for a [check]
    job sent without [max_executions]. *)
val default_max_execs : int option

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

    A hit on a buggy entry first replays each witness as exactly one
    run ({!Mc.Explorer.explore_subtree} with the witness's path frozen,
    pruning off, the job's checker hook and the preloaded cache). The
    bug list is rebuilt from those runs in stored order, the first
    buggy execution is the first witness's, and a bug the warm run
    finds that no witness gave is appended after them. The replays'
    runs count in the stats; they add no graph, closed key or verdict
    to an unchanged program's entry. A witness no longer replays when a
    recorded decision differs from the live one
    ({!Mc.Scheduler.Diverged}), when the run does not complete on
    exactly its path, or when it does not report the witness's keys:
    the entry is then deleted and counted in [stats.corrupt], and the
    job runs cold with nothing from it ([`Miss]); nothing raises.

    A hit on a complete entry whose run added no closed prune key, graph
    fingerprint or check-cache verdict — the usual warm hit — writes
    nothing: the result carries the stored graph and closed-key lists
    as they are, and the entry file is left untouched.

    {b Reuse.} Such a hit, with every witness replayed and the warm run
    complete (neither capped nor stopped), has re-validated the entry's
    bytes, and its result is kept on their resident record with the
    [jobs] and [max_execs] it ran under. A later call under the same
    [jobs] and [max_execs] whose {!load} finds the file still holding
    those bytes returns the kept result — bugs, witnesses, first buggy
    execution, graphs and every count — with only [time] and
    [minor_words] its own, counted in [stats.reused]. It imports no
    verdict, replays no witness and runs nothing, so it polls neither
    [stop] nor [progress]. This is sound because nothing the run reads
    can differ: the program, engine and checker are this process's, the
    key fixes the bench, test, orders, scheduler bounds, prune flag and
    checker config, and the file's bytes are compared on every call. A
    rewrite, corruption or deletion of the file, a {!save}, an eviction,
    or a hit under other [jobs] or [max_execs] re-validates. Every
    entry's first hit in every process is a re-validation, so no verdict
    is ever read from a file. With [jobs > 1] the counts of a run depend
    on how work stealing split it; a reuse reports the kept run's.

    The exploration is one {!Mc.Parallel.explore} call over [jobs]
    domains. [stop] is polled after every run at any [jobs] (the serve
    daemon cancels abandoned jobs this way). [engine] and [use_cache]
    are ignored: they are kept only because the benchmark passes them.

    Check keys are cap-agnostic ([max_execs] is not part of the key):
    clean-but-capped runs save partial entries scoped by their cap, a
    partial entry only warms runs whose cap is at most the stored one,
    and the first completing run upgrades the entry in place. Complete
    buggy runs save their witnesses; stopped runs and capped buggy runs
    are never saved. Returns the result plus the store
    disposition ([`Miss] includes a stored entry rejected for a
    too-large cap). A save that fails keeps the result and gives
    [`Save_failed m], where [m] is {!save}'s [Sys_error] message, which
    names the entry path. *)
val explore_checked :
  ?store:t ->
  ?stop:(unit -> bool) ->
  ?progress:(int -> unit) ->
  ?engine:[ `Arena ] ->
  ?use_cache:bool ->
  checker:Cdsspec.Checker.config ->
  max_execs:int option ->
  jobs:int ->
  prune:bool ->
  Structures.Benchmark.t ->
  ords:Structures.Ords.t ->
  Structures.Benchmark.test ->
  Mc.Explorer.result * [ `Off | `Miss | `Hit | `Save_failed of string ]
