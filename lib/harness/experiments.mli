(** The paper's evaluation, regenerated: Figure 7 (benchmark results),
    Figure 8 (bug-injection detection), the section 6.2 expressiveness
    statistics, and the section 6.4.1 known-bug reproductions. Each
    experiment returns structured rows and can render itself as the same
    table the paper prints. *)

(** Caps applied to every exploration, so experiment wall-clock stays
    bounded on adversarial configurations. Every exploration runs
    {!Store.explore_checked} without a store, under the same defaults as
    [cdsspec_run check]: {!Cdsspec.Checker.default_config}, the check
    cache on and pruning on. *)
type limits = {
  max_executions : int;
  jobs : int;  (** exploration domains per unit test; 1 = serial explorer *)
}

val default_limits : limits

(** Jobs requested via the [CDSSPEC_JOBS] environment variable: unset
    means 1 (serial), 0 means [Domain.recommended_domain_count ()].
    Raises [Invalid_argument] on garbage. *)
val jobs_of_env : unit -> int

(** {1 Figure 7 — benchmark results} *)

type fig7_row = {
  name : string;
  executions : int;  (** total executions explored, summed over unit tests *)
  feasible : int;
  time : float;  (** seconds *)
}

val figure7 : ?limits:limits -> Structures.Benchmark.t list -> fig7_row list
val pp_figure7 : Format.formatter -> fig7_row list -> unit

(** {1 Figure 8 — bug injection} *)

(** How an injection was detected, in the paper's priority order: a
    built-in check anywhere beats admissibility beats a spec assertion
    (the paper tabulates admissibility/assertion only for injections that
    pass the earlier classes). *)
type detection = Builtin | Admissibility | Assertion | Missed

type injection_outcome = {
  site : string;
  weakened_to : C11.Memory_order.t;
  detection : detection;
}

type fig8_row = {
  bench : string;
  injections : int;
  builtin : int;
  admissibility : int;
  assertion : int;
  outcomes : injection_outcome list;
}

val figure8 : ?limits:limits -> Structures.Benchmark.t list -> fig8_row list
val pp_figure8 : Format.formatter -> fig8_row list -> unit

(** Injections nothing detects — candidate overly-strong parameters
    (paper section 6.4.3). *)
val undetected : fig8_row list -> (string * string) list

(** {1 Section 6.2 — expressiveness statistics} *)

type expressiveness = {
  benchmarks : int;
  total_spec_lines : int;
  avg_spec_lines : float;
  api_methods : int;
  ordering_points : int;
  ordering_points_per_method : float;
  admissibility_lines : int;
}

val expressiveness : Structures.Benchmark.t list -> expressiveness
val pp_expressiveness : Format.formatter -> expressiveness -> unit

(** {1 Section 6.4.1 — known bugs} *)

type known_bug_row = {
  label : string;
  found : bool;
  report : string;  (** first diagnostic *)
}

val known_bugs : ?limits:limits -> unit -> known_bug_row list
val pp_known_bugs : Format.formatter -> known_bug_row list -> unit
