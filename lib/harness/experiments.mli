(** The paper's evaluation, regenerated: Figure 7 (benchmark results),
    Figure 8 (bug-injection detection), the section 6.2 expressiveness
    statistics, and the section 6.4.1 known-bug reproductions. Each
    experiment returns structured rows and can render itself as the same
    table the paper prints. *)

(** Caps applied to every exploration, so experiment wall-clock stays
    bounded on adversarial configurations. *)
type limits = {
  max_executions : int;
  checker : Cdsspec.Checker.config;
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

(** {1 Randomized exploration — fuzz campaigns}

    Beyond-exhaustive workloads (see {!Structures.Oversized}) sampled by
    the {!Fuzz.Engine} instead of enumerated. *)

type fuzz_limits = {
  fuzz_executions : int option;
  fuzz_time_budget : float option;  (** seconds; both bounds may be set *)
  fuzz_bias : Fuzz.Bias.policy;
  fuzz_checker : Cdsspec.Checker.config;
}

(** 2000 executions, no time budget, [Prefer_stale_rf]. *)
val default_fuzz_limits : fuzz_limits

(** One raw campaign on one unit test — the fuzz analogue of the
    internal exhaustive [explore]. Sleep sets are forced off, as the
    engine requires. *)
val fuzz :
  limits:fuzz_limits ->
  seed:int ->
  Structures.Benchmark.t ->
  ords:Structures.Ords.t ->
  Structures.Benchmark.test ->
  Fuzz.Engine.result

type fuzz_row = {
  workload : string;  (** ["bench/test"] *)
  seed : int;
  fuzz_execs : int;
  fuzz_feasible : int;
  fuzz_coverage : int;  (** distinct execution fingerprints *)
  distinct_bugs : int;  (** deduplicated by {!Mc.Bug.key} *)
  execs_per_sec : float;
  time_to_first_bug : float option;
  fuzz_time : float;  (** seconds *)
  first_repro : string option;  (** seed + minimized trace of the first bug *)
}

(** The oversized fuzz-only registry entries, i.e.
    {!Structures.Oversized.all}. *)
val fuzz_workloads : unit -> Structures.Benchmark.t list

(** Fuzz every unit test of every benchmark at its default (correct)
    memory orders, one row per test. *)
val fuzz_campaign :
  ?limits:fuzz_limits -> ?seed:int -> Structures.Benchmark.t list -> fuzz_row list

val pp_fuzz : Format.formatter -> fuzz_row list -> unit

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
