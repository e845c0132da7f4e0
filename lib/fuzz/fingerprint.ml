(* Delegates to the canonical execution-graph fingerprint maintained
   incrementally by [C11.Execution] (per-thread action sequences + rf +
   mo + SC order, tids normalized by creation order). Reusing the
   explorer's equivalence-pruning hash makes fuzz coverage comparable
   with the exhaustive explorer's graph set, with one caveat: the hash
   also tells apart the SC order of seq_cst actions on different
   locations and the ids that concurrent [malloc]s receive, and sleep
   sets explore only one order of such independent operations. So a
   fuzz campaign (sleep sets off) covers a subset of the graph set of an
   exhaustive run with sleep sets {e off}, which can be larger than the
   default run's [distinct_graphs]. It is also O(1) per call — the hash
   is folded in as actions commit — where the previous FNV pass
   rescanned the whole committed action list. *)
let execution = C11.Execution.fingerprint
