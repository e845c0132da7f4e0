(** An incrementally-built C/C++11 execution graph.

    The scheduler commits one action at a time; the graph maintains
    sequenced-before (per-thread step numbers), reads-from, modification
    order, release sequences, synchronizes-with (including the C11 fence
    rules), happens-before (as vector clocks) and the SC total order.

    Modification order and the SC order are both represented by the commit
    order: the model checker enumerates all schedules, so every mo/SC
    total order consistent with causality is explored (see DESIGN.md,
    "Memory model approximations"). *)

type t

(** Problems detected while committing actions — the "built-in checks" of
    the paper's Figure 8 plus assertion support for the DSL. *)
type problem =
  | Data_race of { first : Action.t; second : Action.t }
  | Uninitialized_load of Action.t

(** An empty execution. Candidate filtering goes through the
    incremental {!Rf_kernel}: its per-(location, thread) coherence
    columns are fed on every commit and undo, and one {!Rf_kernel.floor}
    query rejects incoherent rf choices before replay. *)
val create : unit -> t

(** [(queries, rejected)] accumulated by candidate filtering on this
    execution arena: floor queries answered, and the total number of
    stores excluded before replay (the sum of returned floors).
    Cumulative — never rewound by {!restore}. *)
val rf_counters : t -> int * int

(** Total actions committed on this arena since creation — the commit
    phase counter. Cumulative like {!rf_counters}: never rewound by
    {!restore}, so across an arena session it counts every commit the
    search performed, including ones later undone. *)
val commit_count : t -> int

(** {1 Locations} *)

(** [alloc t ~tid ~count ~init] reserves [count] fresh consecutive
    locations and returns the first. With [init = Some v] each cell is
    initialized by a committed non-atomic store of [v] (making subsequent
    loads defined); with [None] the cells start uninitialized, as malloc'd
    C memory does. *)
val alloc : t -> tid:int -> count:int -> init:int option -> int

(** {1 Threads} *)

(** [commit_create t ~tid ~child] commits a thread-create action in
    [tid]; the child's first action will happen after it. *)
val commit_create : t -> tid:int -> child:int -> Action.t

val commit_start : t -> tid:int -> Action.t
val commit_finish : t -> tid:int -> Action.t

(** [commit_join t ~tid ~target] requires [target] to have finished. *)
val commit_join : t -> tid:int -> target:int -> Action.t

(** {1 Reads} *)

(** [read_candidates t ~tid ~mo ~loc] lists the writes a new atomic load
    by [tid] with order [mo] may read from, newest-first, after coherence
    and SC filtering. The empty list means the location is
    uninitialized. Candidate filtering is incremental: per-(location,
    thread) monotone coherence indices are maintained on every commit,
    so one query costs O(threads * log stores) instead of rescanning the
    store and read lists. *)
val read_candidates : t -> tid:int -> mo:Memory_order.t -> loc:int -> Action.t list

(** Reference implementation of {!read_candidates} that rescans the full
    per-location store/read lists per query — the oracle the incremental
    coherence indices are differentially tested against. *)
val read_candidates_ref : t -> tid:int -> mo:Memory_order.t -> loc:int -> Action.t list

(** Allocation-free variant of {!read_candidates} for the hot load path:
    the candidate set is always a contiguous suffix of modification
    order, so [read_window] returns just its size and
    [read_candidate t ~loc i] is candidate [i] in the same newest-first
    order the list version uses. A window of [0] means uninitialized. *)
val read_window : t -> tid:int -> mo:Memory_order.t -> loc:int -> int

val read_candidate : t -> loc:int -> int -> Action.t

(** The unique write an RMW may read: the mo-maximal write, if any. *)
val rmw_candidate : t -> loc:int -> Action.t option

(** [commit_load t ~tid ~mo ~loc ~rf ?site ()] commits an atomic load
    reading from write [rf] (an element of [read_candidates]); [rf =
    None] commits an uninitialized load reading 0 and reports it. *)
val commit_load :
  t ->
  tid:int ->
  mo:Memory_order.t ->
  loc:int ->
  rf:Action.t option ->
  ?site:string ->
  unit ->
  Action.t * problem list

val commit_na_load : t -> tid:int -> loc:int -> ?site:string -> unit -> Action.t * problem list

(** {1 Writes} *)

val commit_store :
  t -> tid:int -> mo:Memory_order.t -> loc:int -> value:int -> ?site:string -> unit -> Action.t * problem list

val commit_na_store : t -> tid:int -> loc:int -> value:int -> ?site:string -> unit -> Action.t * problem list

(** [commit_rmw] commits a successful read-modify-write reading the
    mo-maximal write and writing [value]. On an uninitialized location
    the read half observes garbage — reported as an uninitialized
    access, exactly like {!commit_load} with [rf = None] — while the
    write half still commits. *)
val commit_rmw :
  t -> tid:int -> mo:Memory_order.t -> loc:int -> value:int -> ?site:string -> unit -> Action.t * problem list

(** {1 Fences} *)

val commit_fence : t -> tid:int -> mo:Memory_order.t -> Action.t

(** {1 Queries} *)

val num_actions : t -> int

(** [action t id] for [0 <= id < num_actions t]; actions are in commit
    order, which also gives mo per location and the SC total order. *)
val action : t -> int -> Action.t

(** The newest committed write to a location, if any; its value is the
    "current value" non-atomic loads observe. *)
val last_write : t -> int -> Action.t option

(** [happens_before t a b] over action ids. *)
val happens_before : t -> int -> int -> bool

(** [hb_or_sc t a b]: happens-before, or both seq_cst with [a] earlier in
    the SC total order — the relation that orders ordering points (paper
    section 5.2). *)
val hb_or_sc : t -> int -> int -> bool

(** Canonical 64-bit fingerprint of the execution graph committed so
    far, invariant under the commit interleaving: it digests the
    per-thread action sequences (kind, location, memory order, values,
    and reads-from as the (tid, seq) of the source write), per-location
    modification order, and the SC total order restricted to seq_cst
    actions. Two runs hash equal iff their graphs agree on all of those
    (modulo 64-bit collisions); maintained incrementally, so a call is
    O(1). Thread ids are canonical already — they are assigned in
    creation order. *)
val fingerprint : t -> int64

(** {1 Arena watermarks}

    The graph is stored in append-only arenas (flat action store, dense
    per-thread and per-location chains, fingerprint-chain histories)
    plus an undo journal for the few scalars commits overwrite. [mark]
    captures the current high-water marks in O(1); [restore] rewinds the
    graph to a mark by popping arena segments and replaying the journal
    backwards — cost proportional to the number of actions undone, not
    to the size of the graph.

    Restoring invalidates nothing that was committed at or before the
    mark: [Action.t] records and clocks are immutable, so references to
    them stay valid. References to actions committed {e after} the mark
    must not be retained across a restore. *)

type mark

val mark : t -> mark

(** [restore t m] rewinds [t] to the state captured by [m], which must
    come from this [t] with no intervening restore past it. *)
val restore : t -> mark -> unit

(** Deep copy: the result shares only immutable values (actions, clocks)
    with the original and is unaffected by later commits or restores on
    it. Used to retain an execution past the arena's next restore. *)
val copy : t -> t

val pp : Format.formatter -> t -> unit
