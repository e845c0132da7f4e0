(** The counterexample-guided weakening advisor (paper section 6.4.2,
    inverted): instead of injecting bugs to measure detection, weaken
    each site the table allows, re-explore the whole workload under the
    downgraded table, and classify the result.

    For each {!Structures.Ords.weakenable} site the advisor walks the
    full {!Structures.Ords.downgrades} chain (e.g. seq_cst -> acq_rel ->
    release -> relaxed for an RMW). Every rung is re-explored with the
    spec checker attached and its behaviour-fingerprint set compared to
    the baseline collected by {!Access_summary}:

    - [Safe_to_weaken] — the spec still passes and the (memory-order
      insensitive) fingerprint set is unchanged: the workload cannot tell
      the orders apart.
    - [Behaviour_changing] — the spec still passes but new fingerprints
      appeared (or baseline ones vanished): the weaker order admits
      observable reorderings the spec happens to tolerate.
    - [Spec_violating] — the checker or a built-in check fired; the
      verdict carries the bug key and, when the witness search succeeds
      within 200,000 runs, a decision trace replayable with
      [cdsspec_run check <bench> --replay TRACE] (the search re-runs the
      scheduler with sleep sets off, matching replay semantics).

    Every candidate is checked under {!Cdsspec.Checker.default_config}.

    Each first-rung verdict is cross-checked against {!Lint}'s
    prediction for the site ([agrees_with_lint]). *)

type config = {
  max_executions : int option;
      (** per unit test per candidate; use the same cap as the baseline
          {!Access_summary.collect} or the fingerprint diff is noise *)
  jobs : int;  (** [> 1] re-explores candidates with {!Mc.Parallel} *)
  time_budget : float option;
      (** wall-clock budget; remaining candidates are skipped and the
          report marked truncated *)
}

val default_config : config

type verdict =
  | Safe_to_weaken
  | Behaviour_changing of { new_behaviours : int; lost_behaviours : int }
  | Spec_violating of { bug : string; witness : string option; witness_test : string option }

type candidate = {
  site : string;
  from_order : C11.Memory_order.t;  (** the published order *)
  to_order : C11.Memory_order.t;  (** this rung of the downgrade chain *)
  verdict : verdict;
  explored : int;  (** executions spent on this candidate *)
  time : float;
  lint_predicted : bool;  (** lint advice said the site is over-synchronized *)
  agrees_with_lint : bool option;
      (** first rung only: prediction matched [Safe_to_weaken]? *)
  witness_exec : C11.Execution.t option;
      (** the witness execution graph, for {!C11.Dot} rendering *)
}

type report = {
  bench : string;
  baseline_behaviours : int;
  candidates : candidate list;
  truncated : bool;
  time : float;
}

val verdict_to_string : verdict -> string

(** [advise b ~summary] runs the advisor against the baseline in
    [summary] (which must come from the same caps for a meaningful
    diff). [only_sites] restricts the candidate set; [findings] supplies
    the lint report for cross-checking. When the baseline itself is
    buggy every comparison is meaningless, so the report carries no
    candidates. *)
val advise :
  ?config:config ->
  ?only_sites:string list ->
  ?findings:Lint.finding list ->
  Structures.Benchmark.t ->
  summary:Access_summary.t ->
  report
