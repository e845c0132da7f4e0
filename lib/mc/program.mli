(** The embedded C11-atomics DSL that test programs are written in.

    A program is an ordinary OCaml function; every call below performs an
    effect that the scheduler intercepts, so threads only make progress
    when the model checker schedules them. Values and locations are plain
    [int]s ([0] doubles as the null pointer, matching the benchmarks'
    C code). These functions must only be called from inside a program run
    by {!Explorer.explore}; calling them elsewhere raises
    [Effect.Unhandled]. *)

type loc = int

type mo = C11.Memory_order.t

(** Specification-layer instrumentation markers, recorded verbatim in the
    run's annotation stream (interpreted by the [cdsspec] library; the
    model checker itself ignores them). *)
type annotation =
  | Method_begin of { name : string; args : int list; obj : int }
      (** [obj] identifies the data-structure instance, so the checker can
          check each object against its own specification (the paper's
          composability, Definition 9) *)
  | Method_end of { ret : int option }
  | Op_define
  | Op_clear
  | Op_clear_define
  | Potential_op of string
  | Op_check of string

(** The requests threads hand to the scheduler. Exposed so the scheduler
    can interpret them; programs use the wrapper functions below. *)
type op =
  | Load of { mo : mo; loc : loc; site : string option }
  | Await of { mo : mo; loc : loc; until : int -> bool; site : string option }
      (** a load that blocks until it can read a value [until] accepts;
          see {!await} *)
  | Store of { mo : mo; loc : loc; value : int; site : string option }
  | Cas of { mo : mo; fail_mo : mo; loc : loc; expected : int; desired : int; site : string option }
  | Fetch_add of { mo : mo; loc : loc; delta : int; site : string option }
  | Exchange of { mo : mo; loc : loc; value : int; site : string option }
  | Fence of { mo : mo }
  | Na_load of { loc : loc; site : string option }
  | Na_store of { loc : loc; value : int; site : string option }
  | Alloc of { count : int; init : int option }
  | Spawn of (unit -> unit)
  | Join of int
  | Annotate of annotation
  | Check of { cond : bool; message : string }

type _ Effect.t += Do : op -> int Effect.t

(** Per-domain dispatcher consulted before performing {!Do}, with two
    tiers. [hook]: the scheduler's general hook — commits invisible
    (and, when sound, visible) operations without suspending the fiber,
    returning [None] for operations that need a scheduling decision,
    which fall back to the effect. [rp_*]: the restore-replay value
    feed — while [rp_next < rp_limit] every operation consumes the next
    logged value directly, building no [op] record and entering no
    closure; [Spawn] additionally re-registers its child's closure
    through [rp_spawn]. [rp_limit = 0] and [hook = None] (the defaults)
    mean every operation performs the effect. *)
type dispatcher = {
  mutable hook : (op -> int option) option;
  mutable rp_vals : int array;
  mutable rp_next : int;
  mutable rp_limit : int;
  mutable rp_spawn : int -> (unit -> unit) -> unit;
}

val dispatch : dispatcher Domain.DLS.key

(** {1 Atomic operations} *)

val load : ?site:string -> mo -> loc -> int
val store : ?site:string -> mo -> loc -> int -> unit

(** [await ?site mo loc ~until] is the spin loop
    [while not (until (load mo loc)) do () done], returning the value
    that ended it, with the waiting made explicit: the scheduler treats
    the thread as blocked while no store it may read satisfies [until],
    and as enabled (reading one of those stores) once one does. A spin
    iteration that re-reads a rejected store adds no behaviour, so the
    explorer enumerates none of them, and a state in which every
    unfinished thread is blocked is reported as a deadlock — the
    infinite spin that the loop bound would otherwise prune silently.

    [until] must be pure and total: the scheduler calls it any number of
    times, on any value, to decide whether the thread can run. Use it
    only for a loop whose body is this one load (annotations after the
    loop are fine); a loop that reads two locations, or whose retry path
    writes, stays a [load] loop under the loop bound. Each issue counts
    as one load against the loop bound. A read of uninitialized memory
    (0, reported as an uninitialized load) that [until] rejects waits
    again, as the spin would. *)
val await : ?site:string -> mo -> loc -> until:(int -> bool) -> int

(** [cas ?fail_mo mo loc ~expected ~desired] is
    [compare_exchange_strong]: returns [true] iff the observed value
    equalled [expected] and the write was performed. [fail_mo] defaults to
    the strongest load order implied by [mo]. *)
val cas : ?site:string -> ?fail_mo:mo -> mo -> loc -> expected:int -> desired:int -> bool

(** Like {!cas} but also returns the observed value. *)
val cas_val : ?site:string -> ?fail_mo:mo -> mo -> loc -> expected:int -> desired:int -> bool * int

(** [fetch_add mo loc d] returns the previous value. *)
val fetch_add : ?site:string -> mo -> loc -> int -> int

(** [exchange mo loc v] returns the previous value. *)
val exchange : ?site:string -> mo -> loc -> int -> int

val fence : mo -> unit

(** {1 Non-atomic accesses} *)

val na_load : ?site:string -> loc -> int
val na_store : ?site:string -> loc -> int -> unit

(** {1 Memory and threads} *)

(** [malloc ?init n] returns the base of [n] fresh cells, never [0]
    (the null pointer). With [init] they are initialized non-atomically
    (like calloc); without, loading them before storing is an
    uninitialized load. *)
val malloc : ?init:int -> int -> loc

val spawn : (unit -> unit) -> int
val join : int -> unit

(** {1 Checks and instrumentation} *)

(** [check cond msg] records an assertion-failure bug when [cond] is
    false (the analogue of CDSChecker's MODEL_ASSERT). *)
val check : bool -> string -> unit

val annotate : annotation -> unit
