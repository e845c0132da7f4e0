(** List-then-replay reference for {!Cdsspec.Checker}: the checking pass
    of the paper's section 5.2 done the direct way. For each object it
    lists the valid sequential histories with {!Linear_extensions}
    (or draws them, under [sample_histories]) and replays each from the
    initial state, then lists every justifying subhistory of each call
    that needs one and replays those. Verdicts and messages must be
    byte-identical to {!Cdsspec.Checker.check_execution}'s under the
    same config; the differential tests hold the merging walk and the
    check cache to that. It keeps no cache, and enumerates under the
    checker's caps, {!Cdsspec.Checker.max_histories} and
    {!Cdsspec.Checker.max_prefixes}. *)

(** [justifying_subhistories ?max r calls m] lists the justifying
    subhistories of [m] (Def. 3): the linearizations of ⊑r's strict
    down-set of [m], each with [m] appended, in
    {!Linear_extensions.enumerate}'s order and under its [max] cap. *)
val justifying_subhistories :
  ?max:int ->
  C11.Relation.t ->
  Cdsspec.Call.t list ->
  Cdsspec.Call.t ->
  Cdsspec.Call.t list list * bool

val check_execution :
  ?config:Cdsspec.Checker.config ->
  Cdsspec.Spec.packed ->
  C11.Execution.t ->
  Mc.Scheduler.annot list ->
  Cdsspec.Checker.violation list

(** {!check_execution} as an explorer [on_feasible] callback, mapping
    violations to {!Mc.Bug.Spec_violation}s as {!Cdsspec.Checker.hook}
    does. *)
val hook :
  ?config:Cdsspec.Checker.config ->
  Cdsspec.Spec.packed ->
  C11.Execution.t ->
  Mc.Scheduler.annot list ->
  Mc.Bug.t list
