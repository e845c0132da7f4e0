(** Minimal growable array used for action logs and per-location store
    lists. Indices are dense from 0 in push order. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

(** Last pushed element. Raises [Invalid_argument] when empty. *)
val last : 'a t -> 'a

(** [last_or v d] is the last pushed element, or [d] when empty — the
    branch-free form the rf-kernel floor computations use. *)
val last_or : 'a t -> 'a -> 'a

val is_empty : 'a t -> bool

(** [truncate v n] drops elements from the end so that [length v = n]. *)
val truncate : 'a t -> int -> unit

(** Remove and return the last element. Raises [Invalid_argument] when
    empty. *)
val pop : 'a t -> 'a

(** Shallow copy: fresh backing storage, shared elements. *)
val copy : 'a t -> 'a t

(** The live backing array, for hot loops that have already validated an
    index bound against {!length}. Entries at or past [length v] are
    garbage, and any {!push} may replace the array entirely — callers
    must not retain it across mutation. *)
val unsafe_data : 'a t -> 'a array

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
