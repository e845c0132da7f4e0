(** Execution fingerprints for coverage accounting: two runs that induce
    the same execution graph (same per-thread action sequences, reads-from
    edges, modification order and SC order, with thread ids normalized by
    creation order) hash equal, so the number of distinct fingerprints
    counts the distinct behaviours a fuzz campaign has actually exercised
    — random walks revisit the same executions constantly, and raw run
    counts wildly overstate coverage. *)

(** Canonical hash of the committed execution graph — an alias for
    {!C11.Execution.fingerprint}, the same hash the exhaustive explorer's
    equivalence pruning and [distinct_graphs] counter use. Fuzz coverage
    is a subset of the graph set of an exhaustive run with sleep sets
    off; with sleep sets on (the default) the explorer visits one order
    of independent seq_cst actions and of concurrent allocations, which
    this hash distinguishes, so its [distinct_graphs] can be smaller
    than a campaign's coverage. O(1): the
    hash is maintained incrementally as actions commit. Deterministic
    across runs and processes (no randomized hashing). *)
val execution : C11.Execution.t -> int64
