(** Rescanning reference for the read window of {!C11.Execution}: which
    stores a new atomic load may read. It sees only the public action
    log of the execution, never the location state or the
    {!C11.Rf_kernel} columns that the live answer comes from. *)

(** [candidates x ~tid ~mo ~loc] lists, newest first, the stores to
    [loc] that a new load by [tid] with order [mo] may read in [x]'s
    current state, recomputed from [x]'s committed actions: [loc]'s
    writes in commit order (= modification order), each atomic read of
    [loc] and the store it read, [tid]'s newest action clock and every
    thread's seq_cst fences. The floor is the highest of
    - CoWR/CoRW: the newest store that happens before the load;
    - CoRR: the newest store read by a read that happens before the load;
    - for a seq_cst load, the newest seq_cst store (29.3p3) and the
      newest store followed in its thread by a seq_cst fence (29.3p6);
    - when [tid] has issued a seq_cst fence F, the newest seq_cst store
      committed before F (29.3p5) and the newest store followed in its
      thread by a seq_cst fence committed before F (29.3p7).

    [[]] means [loc] has no stores. *)
val candidates :
  C11.Execution.t -> tid:int -> mo:C11.Memory_order.t -> loc:int -> C11.Action.t list

(** The live answer as a list in the same order:
    {!C11.Execution.read_window} candidates, read with
    {!C11.Execution.read_candidate}. *)
val window :
  C11.Execution.t -> tid:int -> mo:C11.Memory_order.t -> loc:int -> C11.Action.t list
