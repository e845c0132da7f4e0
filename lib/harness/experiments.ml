module E = Mc.Explorer
module B = Structures.Benchmark

type limits = { max_executions : int; jobs : int }

let default_limits = { max_executions = 150_000; jobs = 1 }

let jobs_of_env () =
  match Sys.getenv_opt "CDSSPEC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some 0 -> Domain.recommended_domain_count ()
    | _ -> invalid_arg (Printf.sprintf "CDSSPEC_JOBS=%S: expected a non-negative integer" s))
  | None -> 1

(* [cdsspec_run check]'s path without a store. *)
let explore ~limits (b : B.t) ~ords (t : B.test) =
  fst
    (Store.explore_checked ~checker:Cdsspec.Checker.default_config ~use_cache:true
       ~max_execs:(Some limits.max_executions) ~jobs:limits.jobs ~prune:true
       ~engine:E.default_config.engine b ~ords t)

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)

type fig7_row = {
  name : string;
  executions : int;
  feasible : int;
  time : float;
}

let figure7 ?(limits = default_limits) benches =
  List.map
    (fun (b : B.t) ->
      let ords = Structures.Ords.default b.sites in
      let rows = List.map (explore ~limits b ~ords) b.tests in
      {
        name = b.name;
        executions = List.fold_left (fun acc (r : E.result) -> acc + r.stats.explored) 0 rows;
        feasible = List.fold_left (fun acc (r : E.result) -> acc + r.stats.feasible) 0 rows;
        time = List.fold_left (fun acc (r : E.result) -> acc +. r.stats.time) 0. rows;
      })
    benches

let pp_figure7 ppf rows =
  Format.fprintf ppf "%-22s %12s %10s %14s@." "Benchmark" "# Executions" "# Feasible"
    "Total Time (s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %12d %10d %14.2f@." r.name r.executions r.feasible r.time)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)

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

(* Classify one exploration's reports: built-in checks win, then
   admissibility, then specification assertions — matching how the
   paper's three detection columns are tabulated. *)
let classify bugs =
  let is_builtin = function
    | Mc.Bug.Data_race _ | Uninitialized_load _ | Deadlock _ | Assertion_failure _ -> true
    | Spec_violation _ -> false
  in
  let spec_kind k =
    List.exists (function Mc.Bug.Spec_violation { kind; _ } -> kind = k | _ -> false) bugs
  in
  if bugs = [] then Missed
  else if List.exists is_builtin bugs then Builtin
  else if spec_kind "admissibility" then Admissibility
  else Assertion

let merge_detections a b =
  match a, b with
  | Builtin, _ | _, Builtin -> Builtin
  | Admissibility, _ | _, Admissibility -> Admissibility
  | Assertion, _ | _, Assertion -> Assertion
  | Missed, Missed -> Missed

let figure8 ?(limits = default_limits) benches =
  List.map
    (fun (b : B.t) ->
      let weakenable = Structures.Ords.weakenable b.sites in
      let outcomes =
        List.map
          (fun (s : Structures.Ords.site) ->
            match Structures.Ords.weakened b.sites s.name with
            | None -> assert false (* weakenable sites always weaken *)
            | Some ords ->
              let weakened_to = Structures.Ords.get ords s.name in
              let detection =
                (* stop at the first detecting unit test; within one
                   exploration [classify] already applies the paper's
                   built-in > admissibility > assertion priority *)
                List.fold_left
                  (fun acc (t : B.test) ->
                    match acc with
                    | Missed -> merge_detections acc (classify (explore ~limits b ~ords t).bugs)
                    | found -> found)
                  Missed b.tests
              in
              { site = s.name; weakened_to; detection })
          weakenable
      in
      let count d = List.length (List.filter (fun o -> o.detection = d) outcomes) in
      {
        bench = b.name;
        injections = List.length outcomes;
        builtin = count Builtin;
        admissibility = count Admissibility;
        assertion = count Assertion;
        outcomes;
      })
    benches

let rate_pct r =
  if r.injections = 0 then 100
  else (r.builtin + r.admissibility + r.assertion) * 100 / r.injections

let pp_figure8 ppf rows =
  Format.fprintf ppf "%-22s %11s %10s %15s %11s %6s@." "Benchmark" "# Injection" "# Built-in"
    "# Admissibility" "# Assertion" "Rate";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %11d %10d %15d %11d %5d%%@." r.bench r.injections r.builtin
        r.admissibility r.assertion (rate_pct r))
    rows;
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let total_inj = tot (fun r -> r.injections) in
  let total_det = tot (fun r -> r.builtin + r.admissibility + r.assertion) in
  Format.fprintf ppf "%-22s %11d %10d %15d %11d %5d%%@." "Total" total_inj
    (tot (fun r -> r.builtin))
    (tot (fun r -> r.admissibility))
    (tot (fun r -> r.assertion))
    (if total_inj = 0 then 100 else total_det * 100 / total_inj)

let undetected rows =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun o -> if o.detection = Missed then Some (r.bench, o.site) else None)
        r.outcomes)
    rows

(* ------------------------------------------------------------------ *)
(* Section 6.2 expressiveness                                          *)

type expressiveness = {
  benchmarks : int;
  total_spec_lines : int;
  avg_spec_lines : float;
  api_methods : int;
  ordering_points : int;
  ordering_points_per_method : float;
  admissibility_lines : int;
}

let expressiveness benches =
  let acc f =
    List.fold_left
      (fun acc (b : B.t) ->
        let (Cdsspec.Spec.Packed spec) = b.spec in
        acc + f spec.accounting)
      0 benches
  in
  let n = List.length benches in
  let spec_lines = acc (fun a -> a.Cdsspec.Spec.spec_lines) in
  let methods = acc (fun a -> a.Cdsspec.Spec.api_methods) in
  let ops = acc (fun a -> a.Cdsspec.Spec.ordering_point_lines) in
  {
    benchmarks = n;
    total_spec_lines = spec_lines;
    avg_spec_lines = float_of_int spec_lines /. float_of_int (max 1 n);
    api_methods = methods;
    ordering_points = ops;
    ordering_points_per_method = float_of_int ops /. float_of_int (max 1 methods);
    admissibility_lines = acc (fun a -> a.Cdsspec.Spec.admissibility_lines);
  }

let pp_expressiveness ppf e =
  Format.fprintf ppf "benchmarks:                %d@." e.benchmarks;
  Format.fprintf ppf "total spec lines:          %d@." e.total_spec_lines;
  Format.fprintf ppf "avg spec lines/benchmark:  %.1f@." e.avg_spec_lines;
  Format.fprintf ppf "API methods:               %d@." e.api_methods;
  Format.fprintf ppf "ordering points:           %d@." e.ordering_points;
  Format.fprintf ppf "ordering points/method:    %.2f@." e.ordering_points_per_method;
  Format.fprintf ppf "admissibility rule lines:  %d@." e.admissibility_lines

(* ------------------------------------------------------------------ *)
(* Section 6.4.1 known bugs                                            *)

type known_bug_row = {
  label : string;
  found : bool;
  report : string;
}

let first_report (r : E.result) =
  match r.bugs with
  | [] -> "(no reports)"
  | b :: _ -> Fmt.str "%a" Mc.Bug.pp b

let run_known ~limits (b : B.t) ~ords =
  List.fold_left
    (fun acc (t : B.test) ->
      match acc with
      | Some _ -> acc
      | None ->
        let r = explore ~limits b ~ords t in
        if r.bugs <> [] then Some (first_report r) else None)
    None b.tests

let known_bugs ?(limits = default_limits) () =
  let ms = Structures.Ms_queue.benchmark in
  let ms_rows =
    List.map
      (fun (site, ords) ->
        match run_known ~limits ms ~ords with
        | Some report -> { label = "M&S queue: weak " ^ site; found = true; report }
        | None -> { label = "M&S queue: weak " ^ site; found = false; report = "(not found)" })
      Structures.Ms_queue.known_bugs
  in
  let cl = Structures.Chase_lev_deque.benchmark in
  let cl_row =
    match run_known ~limits cl ~ords:Structures.Chase_lev_deque.known_buggy_ords with
    | Some report -> { label = "Chase-Lev deque: weak resize publication"; found = true; report }
    | None ->
      { label = "Chase-Lev deque: weak resize publication"; found = false; report = "(not found)" }
  in
  ms_rows @ [ cl_row ]

let pp_known_bugs ppf rows =
  List.iter
    (fun r ->
      Format.fprintf ppf "%-45s %s@.    %s@." r.label (if r.found then "FOUND" else "MISSED")
        r.report)
    rows
