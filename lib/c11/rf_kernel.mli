(** Incremental reads-from consistency kernel.

    Per-location saturation state for candidate filtering: the
    coherence orders each thread's writes and atomic reads induce at a
    location, as parallel monotone (seq, mo index) columns, plus the
    SC-store order. [Execution] feeds the state on every commit and undo
    and asks {!floor} for the smallest modification-order index a new
    load may read, rejecting incoherent rf choices {e before} replay.

    Invariant: the (seq, idx) columns are ascending in lockstep — seq by
    construction, write idx because commit order restricted to one
    location is modification order, read idx by CoRR. Every rule of
    {!floor} is therefore one binary search per thread column, and the
    columns are the only state: an undo pops exactly what its commit
    pushed, so a restored arena answers every query as a fresh one
    would. *)

type loc

(** Query statistics for one execution arena: total floor queries, and
    the cumulative number of stores rejected before replay (the sum of
    returned floors). *)
type counters = { mutable queries : int; mutable rejected : int }

val counters_create : unit -> counters
val copy_counters : counters -> counters
val loc_create : unit -> loc
val copy_loc : loc -> loc

(** Commit hooks: append to the (ascending) columns. [idx] is the mo
    index of the store / the mo index a read observed; [id] the commit
    id; [sc] whether the store is seq_cst. *)

val on_write : loc -> tid:int -> seq:int -> id:int -> idx:int -> sc:bool -> unit
val on_read : loc -> tid:int -> seq:int -> idx:int -> unit

(** Undo hooks: pop what the matching commit hook pushed. *)

val undo_write : loc -> tid:int -> sc:bool -> unit
val undo_read : loc -> tid:int -> unit

(** [floor k ~tid ~clock ~sc ~sc_fence_live ~fences x] is the smallest
    modification-order index at [k] that a new load by thread [tid]
    may read, given the reader's vector clock [clock]. It is the
    maximum of three rules:

    - coherence (CoWR/CoRW/CoRR): for every thread [u], its newest
      write here with seq [<= clock[u]], and the newest index observed
      by one of its reads here with such a seq;
    - 29.3p3: when the load is seq_cst ([sc]), the newest seq_cst
      store;
    - 29.3p5–p7, applied only when [sc_fence_live]: [fences x u] lists
      thread [u]'s seq_cst fences as (seq, commit id), newest first.
      A seq_cst fence before the load bounds it below by the newest
      seq_cst store committed before that fence (p5) and by every
      store sequenced before an earlier seq_cst fence of any thread
      (p7); a seq_cst load is bounded by every store sequenced before a
      seq_cst fence (p6).

    O(threads * log stores), and allocation-free: [fences] is a
    function and [x] its argument rather than one closure, so callers
    pass a top-level function and build nothing per query. *)
val floor :
  loc ->
  tid:int ->
  clock:Clock.t ->
  sc:bool ->
  sc_fence_live:bool ->
  fences:('a -> int -> (int * int) list) ->
  'a ->
  int
