(** From one feasible execution to the method-call level: extract calls
    from the annotation stream, build the ordering relation ⊑r from the
    hb/sc ordering of their ordering points, and sample valid sequential
    histories (paper Definitions 2 and 3, section 5.2). The exhaustive
    history and justifying-subhistory walks live in {!Checker}. *)

(** [calls_of_annots annots] reconstructs the outermost API method
    calls per thread. Ordering-point annotations inside nested (internal)
    calls accrue to the outermost call. *)
val calls_of_annots : Mc.Scheduler.annot list -> Call.t list

(** [ordering_relation exec calls] is ⊑r: call [a] precedes call [b] when
    some ordering point of [a] is hb- or SC-ordered before one of [b].
    Node ids are call ids. *)
val ordering_relation : C11.Execution.t -> Call.t list -> C11.Relation.t

(** The CONCURRENT set of a call: calls unordered with it under ⊑r. *)
val concurrent : C11.Relation.t -> Call.t list -> Call.t -> Call.t list

(** Unordered pairs [(a, b)] with [a.id < b.id], for admissibility. *)
val unordered_pairs : C11.Relation.t -> Call.t list -> (Call.t * Call.t) list

(** Memoized id -> call lookup over one call list (raises
    [Invalid_argument] on an unknown id). *)
val by_id : Call.t list -> int -> Call.t

(** [sample_histories ~count ~seed r calls] draws [count] random valid
    sequential histories (linear extensions of ⊑r over all calls, with
    replacement) from a generator seeded with [seed]. *)
val sample_histories : count:int -> seed:int -> C11.Relation.t -> Call.t list -> Call.t list list
