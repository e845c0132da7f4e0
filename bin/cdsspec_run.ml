(* Command-line driver: model-check benchmark unit tests against their
   CDSSpec specifications, optionally weakening memory-order sites. *)

module E = Mc.Explorer
module B = Structures.Benchmark

let find_bench name =
  match Structures.Registry.find name with
  | Some b -> Ok b
  | None ->
    (* Near-miss suggestions beat dumping the whole registry; the serve
       daemon returns the same suggestions in its structured error. *)
    Error
      (`Msg
        (match Structures.Registry.suggest name with
        | [] ->
          Printf.sprintf "unknown structure %S (run `cdsspec_run list` for the registry)" name
        | suggestions ->
          Printf.sprintf "unknown structure %S; did you mean %s?" name
            (String.concat ", " suggestions)))

let list_cmd () =
  List.iter
    (fun (b : B.t) ->
      Format.printf "%-22s tests: %s@." b.name
        (String.concat ", " (List.map (fun (t : B.test) -> t.test_name) b.tests));
      Format.printf "%-22s sites: %s@." ""
        (String.concat ", "
           (List.map
              (fun (s : Structures.Ords.site) ->
                Printf.sprintf "%s:%s" s.name (C11.Memory_order.to_string s.order))
              (Structures.Registry.sites b)));
      let weakenable, total = Structures.Registry.advisor_coverage b in
      Format.printf "%-22s advisor: %d/%d sites weakenable@." "" weakenable total)
    Structures.Registry.all;
  0

let build_ords (b : B.t) weaken overrides =
  match Structures.Ords.with_overrides b.sites overrides with
  | exception Invalid_argument m -> Error (`Msg m)
  | sites -> (
  match weaken with
  | None -> Ok (Structures.Ords.default sites)
  | Some site -> (
    match Structures.Ords.weakened sites site with
    | Some ords -> Ok ords
    | None -> Error (`Msg (Printf.sprintf "site %s cannot be weakened further" site))
    | exception Invalid_argument m -> Error (`Msg m)))

let litmus_cmd filter =
  let tests =
    match filter with
    | None -> Litmus.all
    | Some name -> ( match Litmus.find name with Some t -> [ t ] | None -> [])
  in
  if tests = [] then `Msg "unknown litmus test (see `litmus` with no argument for the corpus)"
  else begin
    let all_ok = ref true in
    List.iter
      (fun t ->
        let r = Litmus.run t in
        if not (Litmus.ok r) then all_ok := false;
        Format.printf "%a@." Litmus.pp_result r)
      tests;
    if !all_ok then `Ok else `Bug
  end

(* Shared post-exploration reporting: the exhaustive and fuzz paths both
   funnel through an Explorer-shaped result. *)
let report_result ~verbose ~dot (r : E.result) =
  let c = r.stats.E.check in
  if c.cache_hits + c.cache_misses > 0 then
    Format.printf "  check cache: %d hits / %d misses (%d entries)@." c.cache_hits c.cache_misses
      c.cache_entries;
  (* A capped enumeration is only a partial proof: say so instead of
     silently under-checking (use --strict-histories to make it fail). *)
  if c.histories_truncated > 0 then
    Format.printf
      "  WARNING: %d check instance(s) hit the max_histories cap; unchecked histories remain@."
      c.histories_truncated;
  if c.prefixes_truncated > 0 then
    Format.printf
      "  WARNING: %d check instance(s) hit the max_prefixes cap; unchecked justifying \
       subhistories remain@."
      c.prefixes_truncated;
  List.iter (fun bug -> Format.printf "  BUG: %a@." Mc.Bug.pp bug) r.bugs;
  (match r.first_buggy_exec with
  | Some exec when verbose ->
    let trace = Fmt.str "%a" C11.Execution.pp exec in
    Format.printf "  first buggy execution:@.%s@."
      (String.concat "\n" (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' trace)))
  | _ -> ());
  (match r.first_buggy_exec, dot with
  | Some exec, Some path ->
    C11.Dot.write_file exec path;
    Format.printf "  wrote %s (render with `dot -Tsvg`)@." path
  | _ -> ());
  r.bugs <> []

let exhaustive_one ?store ~checker ~max_execs ~jobs ~prune ~profile (b : B.t) ~ords (t : B.test) =
  let r, disposition = Store.explore_checked ?store ~checker ~max_execs ~jobs ~prune b ~ords t in
  Format.printf "%s/%s: explored %d, feasible %d, %d distinct graph%s, %.2fs%s@." b.name
    t.test_name r.stats.explored r.stats.feasible r.stats.distinct_graphs
    (if r.stats.distinct_graphs = 1 then "" else "s")
    r.stats.time
    (if r.stats.truncated then " (truncated)" else "");
  (match disposition with
  | `Off -> ()
  | `Hit -> Format.printf "  store: hit (warm re-validation; stored graph set merged)@."
  | `Miss ->
    let saved =
      if prune && r.bugs = [] then
        if r.stats.truncated then ", saved (partial)" else ", saved"
      else ", not saved"
    in
    Format.printf "  store: miss (cold run%s)@." saved
  | `Save_failed m ->
    Format.printf "  store: not saved (write failed)@.";
    Format.eprintf "warning: store entry not saved, verdict kept: %s@." m);
  let s = r.stats in
  if
    s.pruned_equiv + s.pruned_sleep_set + s.pruned_loop_bound + s.pruned_retry
    + s.pruned_max_actions
    > 0
  then
    Format.printf
      "  pruned: %d equivalence, %d sleep-set, %d loop-bound, %d retry, %d max-actions@."
      s.pruned_equiv s.pruned_sleep_set s.pruned_loop_bound s.pruned_retry s.pruned_max_actions;
  Format.printf "  engine: arena, %.0f minor words/exec%s@."
    (if s.explored > 0 then s.minor_words /. float_of_int s.explored else 0.)
    (if s.snapshots > 0 || s.restores > 0 then
       Printf.sprintf ", %d snapshots, %d restores" s.snapshots s.restores
     else "");
  if profile then begin
    (* Per-phase work units: where an execution's wall time goes. *)
    let per v = if s.explored > 0 then float_of_int v /. float_of_int s.explored else 0. in
    Format.printf "  profile: %d commits (%.1f/exec), %d fiber switches (%.1f/exec), %d inline \
                   ops (%.1f/exec)@."
      s.commits (per s.commits) s.fiber_switches (per s.fiber_switches) s.inline_ops
      (per s.inline_ops);
    Format.printf "  profile: %d rf queries (%d rejected), %d snapshots, %d restores, \
                   check cache %d/%d@."
      s.rf_queries s.rf_rejected s.snapshots s.restores s.check.cache_hits
      (s.check.cache_hits + s.check.cache_misses);
    (* Runs cut at a failed retry iteration end before any verdict, like
       loop-bound prunes; only programs that use [retry] have them. *)
    if s.pruned_retry > 0 then
      Format.printf "  profile: %d retry cuts (%.1f%% of runs)@." s.pruned_retry
        (100. *. per s.pruned_retry)
  end;
  r

(* [--time-budget SECONDS] as a [stop] callback: true once SECONDS have
   passed since the call that built it. *)
let deadline_stop seconds =
  let deadline = Mc.Monotonic.now () +. seconds in
  fun () -> Mc.Monotonic.now () >= deadline

let fuzz_one ~checker ~max_execs ~seed ~time_budget ~bias (b : B.t) ~ords (t : B.test) =
  let cache = Cdsspec.Checker.create_cache () in
  let r =
    Fuzz.Engine.run
      ~config:
        { Fuzz.Engine.default_config with scheduler = b.scheduler; bias; max_executions = max_execs }
      ~on_feasible:(Cdsspec.Checker.hook ~config:checker ~cache b.spec)
      ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
      ?stop:(Option.map deadline_stop time_budget)
      ~seed (t.program ords)
  in
  Format.printf "%s/%s: fuzzed %d (%s, seed %d), feasible %d, coverage %d, %.0f execs/s, %.2fs%s@."
    b.name t.test_name r.stats.executions
    (Fuzz.Bias.to_string r.bias)
    r.seed r.stats.feasible r.stats.coverage
    (if r.stats.time > 0. then float_of_int r.stats.executions /. r.stats.time else 0.)
    r.stats.time
    (if r.stats.truncated then " (truncated)" else "");
  (match r.stats.time_to_first_bug with
  | Some t -> Format.printf "  time to first bug: %.3fs@." t
  | None -> ());
  List.iter
    (fun (f : Fuzz.Engine.found) ->
      Format.printf "  repro: --fuzz --seed %d (execution %d), or --replay %s@." r.seed
        f.execution
        (Fuzz.Engine.trace_to_string f.minimized))
    r.found;
  Fuzz.Engine.explorer_result r

let replay_one ~checker ~decisions (b : B.t) ~ords (t : B.test) =
  let cache = Cdsspec.Checker.create_cache () in
  let run_r, bugs =
    Fuzz.Engine.replay
      ~scheduler:b.scheduler
      ~on_feasible:(Cdsspec.Checker.hook ~config:checker ~cache b.spec)
      ~decisions (t.program ords)
  in
  let outcome =
    match run_r.outcome with
    | Mc.Scheduler.Complete -> "complete"
    | Pruned_loop_bound _ -> "pruned (loop bound)"
    | Pruned_max_actions -> "pruned (max actions)"
    | Pruned_sleep_set -> "pruned (sleep set)"
    | Pruned_equiv -> "pruned (equivalence)"
    | Pruned_retry -> "pruned (retry)"
  in
  Format.printf "%s/%s: replayed %d decisions, %s@." b.name t.test_name (List.length decisions)
    outcome;
  let complete = run_r.outcome = Mc.Scheduler.Complete in
  {
    E.stats =
      {
        E.no_stats with
        explored = 1;
        feasible = (if complete then 1 else 0);
        distinct_graphs = (if complete then 1 else 0);
        buggy = (if bugs <> [] then 1 else 0);
        commits = C11.Execution.commit_count run_r.exec;
        fiber_switches = run_r.switches;
        inline_ops = run_r.inline_ops;
        check = Cdsspec.Checker.cache_counters cache;
      };
    bugs;
    first_buggy_exec = (if bugs <> [] then Some run_r.exec else None);
    graphs = (if complete then [ C11.Execution.fingerprint run_r.exec ] else []);
    closed = [];
  }

(* [--store PATH] of [check] and [serve]: a path that cannot be a store
   directory (a regular file, say) is a usage error, not an uncaught
   [Sys_error]. *)
let open_store = function
  | None -> Ok None
  | Some dir -> (
    match Store.open_dir dir with
    | store -> Ok (Some store)
    | exception Sys_error m -> Error (`Msg ("--store: " ^ m)))

let check_cmd name test_filter weaken overrides max_execs verbose dot jobs no_prune profile
    fuzzing replay store_dir =
  let fuzz, seed, time_budget, bias, (checker : Cdsspec.Checker.config) = fuzzing in
  match (find_bench name, checker.sample_histories) with
  | _, Some (n, _) when n < 1 ->
    `Msg (Printf.sprintf "--sample-histories: N must be at least 1 (got %d)" n)
  (* neither mode reads or writes the store, so it is not opened *)
  | _ when store_dir <> None && (fuzz || replay <> None) ->
    `Msg "--store: not used by --fuzz or --replay"
  | Error e, _ -> e
  | Ok b, _ -> (
    let setup =
      Result.bind (build_ords b weaken overrides) (fun ords ->
          Result.map (fun store -> (ords, store)) (open_store store_dir))
    in
    match setup with
    | Error e -> e
    | Ok (ords, store) -> (
      let tests =
        match test_filter with
        | None -> b.tests
        | Some t -> List.filter (fun (x : B.test) -> x.test_name = t) b.tests
      in
      let run =
        match replay with
        | Some s -> (
          match Fuzz.Engine.trace_of_string s with
          | Some decisions -> Ok (replay_one ~checker ~decisions)
          | None -> Error (`Msg (Printf.sprintf "bad trace %S: expected dot-separated indices" s)))
        | None ->
          if fuzz then Ok (fuzz_one ~checker ~max_execs ~seed ~time_budget ~bias)
          else Ok (exhaustive_one ?store ~checker ~max_execs ~jobs ~prune:(not no_prune) ~profile)
      in
      match run with
      | Error e -> e
      | Ok run ->
        if tests = [] then `Msg "no matching test"
        else begin
          let any_bug = ref false in
          List.iter
            (fun (t : B.test) ->
              let r = run b ~ords t in
              if report_result ~verbose ~dot r then any_bug := true)
            tests;
          (match store with
          | Some s ->
            let st = Store.stats s in
            Format.printf "store %s: %d hits, %d misses%s@." (Store.dir s) st.hits st.misses
              (if st.corrupt > 0 then Printf.sprintf ", %d corrupt entries discarded" st.corrupt
               else "")
          | None -> ());
          if !any_bug then `Bug else `Ok
        end))

(* [--site] restricts the advisor, so it needs [--advise], and each
   site it names must be a site of a linted benchmark: a typo would
   advise on nothing and exit 0. *)
let site_error ~advise only_sites (benches : B.t list) =
  let site_of (b : B.t) s = List.exists (fun (x : Structures.Ords.site) -> x.name = s) b.sites in
  match only_sites with
  | Some _ when not advise -> Some "requires --advise"
  | Some sites -> (
    match List.find_opt (fun s -> not (List.exists (fun b -> site_of b s) benches)) sites with
    | Some s ->
      let where = match benches with [ b ] -> b.name | _ -> "any linted benchmark" in
      Some (Printf.sprintf "no site named %S in %s" s where)
    | None -> None)
  | None -> None

(* The static-analysis pass: aggregate per-site facts, run the lint
   rules and (with --advise) the counterexample-guided weakening
   advisor. Exit codes are CI-friendly: 1 iff an error-severity finding
   (a violation under the published orders) exists. *)
let lint_cmd name all json advise max_execs time_budget jobs only_sites dot_dir =
  let benches =
    Result.bind
      (if all then Ok Structures.Registry.exhaustive
       else
         match name with
         | Some n -> Result.map (fun b -> [ b ]) (find_bench n)
         | None -> Error (`Msg "lint: name a benchmark or pass --all"))
      (fun benches ->
        match site_error ~advise only_sites benches with
        | Some m -> Error (`Msg ("--site: " ^ m))
        | None -> Ok benches)
  in
  match benches with
  | Error e -> e
  | Ok benches ->
    let t0 = Mc.Monotonic.now () in
    let remaining () =
      Option.map (fun budget -> Float.max 0. (budget -. (Mc.Monotonic.now () -. t0))) time_budget
    in
    (* the command's deadline, polled by the fact collection *)
    let stop = Option.map deadline_stop time_budget in
    let any_error = ref false in
    let reports =
      List.filter_map
        (fun (b : B.t) ->
          match remaining () with
          | Some r when r <= 0. ->
            if not json then Format.printf "== %s == skipped (time budget exhausted)@." b.name;
            None
          | _ ->
            let scfg = { Analyze.Access_summary.max_executions = max_execs; jobs } in
            let summary = Analyze.Access_summary.collect ~config:scfg ?stop b in
            let findings = Analyze.Lint.lint summary in
            if Analyze.Lint.max_severity findings = Some Analyze.Lint.Error then
              any_error := true;
            let advice =
              if advise then
                let wcfg =
                  { Analyze.Weaken.max_executions = max_execs; time_budget = remaining (); jobs }
                in
                Some (Analyze.Weaken.advise ~config:wcfg ?only_sites ~findings b ~summary)
              else None
            in
            (match (advice, dot_dir) with
            | Some a, Some dir ->
              List.iter
                (fun (c : Analyze.Weaken.candidate) ->
                  match c.witness_exec with
                  | Some exec ->
                    let sanitize s =
                      String.map (fun ch -> if ch = ' ' || ch = '/' then '-' else ch) s
                    in
                    let path =
                      Filename.concat dir
                        (Printf.sprintf "%s-%s-%s.dot" (sanitize b.name) (sanitize c.site)
                           (C11.Memory_order.to_string c.to_order))
                    in
                    (* cite the rf edges touching the weakened site *)
                    let highlight = ref [] in
                    for id = 0 to C11.Execution.num_actions exec - 1 do
                      let act = C11.Execution.action exec id in
                      match act.rf with
                      | Some src ->
                        let w = C11.Execution.action exec src in
                        if act.site = Some c.site || w.site = Some c.site then
                          highlight := (src, id) :: !highlight
                      | None -> ()
                    done;
                    C11.Dot.write_file ~highlight:!highlight ~highlight_sites:[ c.site ] exec
                      path;
                    if not json then Format.printf "  wrote %s@." path
                  | None -> ())
                a.candidates
            | _ -> ());
            Some { Analyze.Report.summary; findings; advice })
        benches
    in
    if json then
      print_string
        (Analyze.Json.to_string
           (Analyze.Report.wrap (List.map (Analyze.Report.to_json ~timings:true) reports)))
    else List.iter (Format.printf "%a" Analyze.Report.pp) reports;
    if !any_error then `Bug else `Ok

let inject_cmd name jobs =
  match find_bench name with
  | Error e -> e
  | Ok b ->
    let limits = { Harness.Experiments.default_limits with jobs } in
    let rows = Harness.Experiments.figure8 ~limits [ b ] in
    List.iter
      (fun (r : Harness.Experiments.fig8_row) ->
        List.iter
          (fun (o : Harness.Experiments.injection_outcome) ->
            Format.printf "%-24s -> %-8s %s@." o.site
              (C11.Memory_order.to_string o.weakened_to)
              (match o.detection with
              | Harness.Experiments.Builtin -> "detected (built-in)"
              | Admissibility -> "detected (admissibility)"
              | Assertion -> "detected (assertion)"
              | Missed -> "NOT DETECTED"))
          r.outcomes)
      rows;
    `Ok

(* ------------------------------------------------------------------ *)
(* Checking-as-a-service: daemon and client *)

(* The daemon's [Gc.space_overhead]: how much garbage, in percent of
   live data, the major GC lets the heap hold (OCaml's default is 120).
   On the perfbench serve workload (2-vCPU host, run pinned to one CPU,
   three runs each) the daemon's peak RSS was 16.5 MB at the default,
   13.5 MB at 60 and 12.6 MB at 40, for about 5,900, 5,400 and 5,500
   jobs/s. *)
let serve_space_overhead = 40

(* The socket path is checked before the store opens, so a refused path
   leaves the store untouched; the store opens before [serve] listens,
   so a client that connects finds it open. *)
let serve_cmd socket jobs store_dir =
  match Serve.Server.check_socket socket with
  | Error m -> `Msg ("--socket: " ^ m)
  | Ok () -> (
    match open_store store_dir with
    | Error e -> e
    | Ok store -> (
      Gc.set { (Gc.get ()) with space_overhead = serve_space_overhead };
      match Serve.Server.serve ~socket ~jobs ?store () with
      | Ok () -> `Ok
      | Error m -> `Msg ("--socket: " ^ m)))

module J = Analyze.Json

let ev_name ev = Option.bind (J.member "event" ev) J.to_str

let error_text ev =
  let message =
    Option.value (Option.bind (J.member "message" ev) J.to_str) ~default:"unknown error"
  in
  match J.member "suggestions" ev with
  | Some (J.List (_ :: _ as l)) ->
    Printf.sprintf "%s; did you mean %s?" message
      (String.concat ", " (List.filter_map J.to_str l))
  | _ -> message

let render_event ev =
  match ev_name ev with
  | Some "result" ->
    let test = Option.value (Option.bind (J.member "test" ev) J.to_str) ~default:"-" in
    let bugs = match J.member "bugs" ev with Some (J.List l) -> l | _ -> [] in
    let stat name = Option.value (Option.bind (J.member name ev) J.to_int) ~default:0 in
    let store =
      match Option.bind (J.member "store" ev) J.to_str with
      | Some ("hit" | "miss" as s) -> Printf.sprintf ", store %s" s
      | Some "save-failed" ->
        Printf.sprintf ", store not saved (%s)"
          (Option.value (Option.bind (J.member "store_error" ev) J.to_str) ~default:"write failed")
      | _ -> ""
    in
    Format.printf "%s: %s, explored %d, %d distinct graphs%s@." test
      (match bugs with
      | [] -> "ok"
      | l -> Printf.sprintf "%d bug%s" (List.length l) (if List.length l = 1 then "" else "s"))
      (stat "explored") (stat "distinct_graphs") store;
    List.iter
      (fun b ->
        match Option.bind (J.member "message" b) J.to_str with
        | Some m -> Format.printf "  BUG: %s@." m
        | None -> ())
      bugs;
    (match J.member "findings" ev with
    | Some (J.List findings) ->
      List.iter
        (fun f ->
          let field name =
            Option.value (Option.bind (J.member name f) J.to_str) ~default:"-"
          in
          Format.printf "  [%s] %s: %s@." (field "severity") (field "rule") (field "message"))
        findings
    | _ -> ())
  | Some "progress" -> ()
  | Some "accepted" -> ()
  | Some "done" ->
    Format.printf "%s@."
      (match J.member "ok" ev with Some (J.Bool true) -> "ok" | _ -> "BUG")
  | _ -> ()

let client_cmd socket op bench test overrides max_execs json_out =
  let module C = Serve.Client in
  (* A write to a server that has gone fails with EPIPE instead of a
     process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match C.connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    `Msg (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
  | c -> (
    let finally () = C.close c in
    Fun.protect ~finally @@ fun () ->
    (* A write to a server that has closed the connection fails; the
       next [recv] reports the close. *)
    let send j = try C.send c j with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> () in
    let print_ev ev =
      if json_out then print_endline (J.to_line ev) else render_event ev
    in
    let one_shot req =
      send (J.Obj [ ("op", J.Str req) ]);
      match C.recv ~timeout:30. c with
      | C.Msg ev ->
        if json_out then print_endline (J.to_line ev) else print_string (J.to_string ev);
        `Ok
      | C.Eof -> `Msg "server closed the connection"
      | C.Timeout -> `Msg "timed out waiting for the server"
    in
    match op with
    | "ping" | "list" | "shutdown" -> one_shot op
    | "check" | "lint" | "fuzz" -> (
      match bench with
      | None -> `Msg (Printf.sprintf "client %s: name a benchmark" op)
      | Some bench ->
        let fields =
          [ ("op", J.Str op); ("bench", J.Str bench) ]
          @ (match test with Some t -> [ ("test", J.Str t) ] | None -> [])
          @ (match overrides with
            | [] -> []
            | l ->
              [
                ( "overrides",
                  J.List
                    (List.map
                       (fun (site, order) ->
                         J.List [ J.Str site; J.Str (C11.Memory_order.to_string order) ])
                       l) );
              ])
          @ match max_execs with Some n -> [ ("max_executions", J.Int n) ] | None -> []
        in
        send (J.Obj fields);
        let rec stream () =
          match C.recv c with
          | C.Msg ev -> (
            print_ev ev;
            match ev_name ev with
            | Some "done" -> (
              match J.member "ok" ev with Some (J.Bool true) -> `Ok | _ -> `Bug)
            | Some "error" -> `Msg (error_text ev)
            | _ -> stream ())
          | C.Eof -> `Msg "server closed the connection mid-job"
          | C.Timeout -> `Msg "timed out"
        in
        stream ())
    | op -> `Msg (Printf.sprintf "unknown client op %S (check, lint, fuzz, ping, list, shutdown)" op))

open Cmdliner

let bench_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")

let exit_of = function
  | `Ok -> 0
  | `Bug -> 1
  | `Msg m ->
    prerr_endline m;
    2

(* [--max-executions N] takes N >= 1 and [--time-budget SECONDS] a
   positive number: a smaller cap would explore one run and report it
   truncated, and a budget of 0 or less stops before the first run, so a
   gate that checks nothing would exit 0. *)
let with_limits ?time_budget max_execs run =
  match max_execs, time_budget with
  | Some n, _ when n < 1 -> `Msg (Printf.sprintf "--max-executions: N must be at least 1 (got %d)" n)
  | _, Some s when not (s > 0.) ->
    `Msg (Printf.sprintf "--time-budget: SECONDS must be a positive number (got %g)" s)
  | _ -> run ()

let ord_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
      let site = String.sub s 0 i in
      let o = String.sub s (i + 1) (String.length s - i - 1) in
      match C11.Memory_order.of_string o with
      | Some order -> Ok (site, order)
      | None -> Error (`Msg ("unknown memory order " ^ o)))
    | None -> Error (`Msg "expected SITE=ORDER")
  in
  let print ppf (site, order) = Format.fprintf ppf "%s=%a" site C11.Memory_order.pp order in
  Arg.conv (parse, print)

(* 0 means "one domain per recommended core"; the default comes from
   CDSSPEC_JOBS so scripted sweeps can set parallelism globally. *)
let jobs_term =
  let doc = "Explore with $(docv) parallel domains (0 = one per core)." in
  Term.(
    const (fun j -> if j <= 0 then Domain.recommended_domain_count () else j)
    $ Arg.(
        value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "CDSSPEC_JOBS") ~doc))

let bias_conv =
  let parse s =
    match Fuzz.Bias.of_string s with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown bias %S; expected one of: %s" s
             (String.concat ", " (List.map Fuzz.Bias.to_string Fuzz.Bias.all))))
  in
  Arg.conv (parse, Fuzz.Bias.pp)

(* --fuzz and its knobs, plus the checker's history-sampling options,
   bundled into one term so [check_cmd] stays legible. *)
let fuzzing_term =
  let fuzz =
    Arg.(
      value & flag
      & info [ "fuzz" ]
          ~doc:
            "Sample executions randomly (C11Tester-style) instead of exhausting the decision \
             tree. Each reported bug prints a seed and a minimized decision trace that replays \
             it deterministically.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed for $(b,--fuzz); same seed, same campaign.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS" ~doc:"Stop fuzzing after this much wall-clock.")
  in
  let bias =
    Arg.(
      value
      & opt bias_conv Fuzz.Bias.Prefer_stale_rf
      & info [ "bias" ] ~docv:"POLICY"
          ~doc:"Fuzz decision bias: $(b,uniform), $(b,prefer-switch) or $(b,prefer-stale-rf).")
  in
  let sample_histories =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-histories" ] ~docv:"N"
          ~doc:
            "Have the spec checker randomly sample N sequential histories per execution instead \
             of enumerating them exhaustively.")
  in
  let history_seed =
    Arg.(
      value & opt int 0
      & info [ "history-seed" ] ~docv:"S" ~doc:"PRNG seed for $(b,--sample-histories).")
  in
  let strict_histories =
    Arg.(
      value & flag
      & info [ "strict-histories" ]
          ~doc:
            "Treat a truncated history/subhistory enumeration (max_histories or max_prefixes \
             cap hit) as a reported violation instead of a warning: a capped check is only a \
             partial proof.")
  in
  Term.(
    const (fun fuzz seed time_budget bias sample hseed strict ->
        let checker =
          {
            Cdsspec.Checker.sample_histories = Option.map (fun n -> (n, hseed)) sample;
            strict_histories = strict;
          }
        in
        (fuzz, seed, time_budget, bias, checker))
    $ fuzz $ seed $ time_budget $ bias $ sample_histories $ history_seed $ strict_histories)

let check_term =
  let test =
    Arg.(value & opt (some string) None & info [ "t"; "test" ] ~docv:"TEST" ~doc:"Run only this unit test.")
  in
  let weaken =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "weaken" ] ~docv:"SITE" ~doc:"Weaken this memory-order site one step.")
  in
  let overrides =
    Arg.(
      value & opt_all ord_conv [] & info [ "o"; "ord" ] ~docv:"SITE=ORDER" ~doc:"Pin a site's order.")
  in
  let max_execs =
    Arg.(
      value
      & opt (some int) (Some 500_000)
      & info [ "max-executions" ] ~docv:"N" ~doc:"Stop exploration after N runs.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the first buggy trace.") in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the first buggy execution graph as Graphviz DOT.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TRACE"
          ~doc:
            "Replay one execution from a dot-separated decision trace (as printed by \
             $(b,--fuzz) reproducers) and report its bugs.")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable execution-graph equivalence pruning: explore every interleaving instead of \
             every distinct graph. Bug lists and verdicts are identical either way (that \
             equivalence is tested); this is the escape hatch for differential debugging and for \
             exact interleaving counts.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the per-phase work counters after each exhaustive run: commits, fiber \
             switches, direct-dispatch inline ops, rf-kernel queries, snapshot/restore counts \
             and check-cache traffic — where the wall time went, without re-profiling.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent cross-run result store: closed decision subtrees, distinct-graph sets \
             and memoized check verdicts are saved per job fingerprint, so re-running an \
             identical check collapses to a warm re-validation with identical verdicts. The \
             store flushes itself wholesale when the engine revision changes.")
  in
  Term.(
    const
      (fun name test weaken overrides max_execs verbose dot jobs no_prune profile fuzzing replay
           store_dir ->
        let _, _, time_budget, _, _ = fuzzing in
        exit_of
          (with_limits ?time_budget max_execs (fun () ->
               check_cmd name test weaken overrides max_execs verbose dot jobs no_prune profile
                 fuzzing replay store_dir)))
    $ bench_arg $ test $ weaken $ overrides $ max_execs $ verbose $ dot $ jobs_term $ no_prune
    $ profile $ fuzzing_term $ replay $ store_dir)

let lint_term =
  let bench = Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK") in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Lint every exhaustively-explorable registry benchmark (the CI sweep).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the versioned machine-readable report (schema $(b,cdsspec-lint/1)) instead of \
             text.")
  in
  let advise =
    Arg.(
      value & flag
      & info [ "advise" ]
          ~doc:
            "Run the counterexample-guided weakening advisor: re-explore each weakenable site's \
             full downgrade chain and classify it safe-to-weaken, behaviour-changing or \
             spec-violating (with a replayable witness).")
  in
  let max_execs =
    Arg.(
      value
      & opt (some int) (Some 200_000)
      & info [ "max-executions" ] ~docv:"N"
          ~doc:"Per-test exploration cap, for both the fact collection and each advisor candidate.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Overall wall-clock budget; benchmarks/candidates beyond it are skipped.")
  in
  let sites =
    Arg.(
      value & opt_all string []
      & info [ "site" ] ~docv:"SITE" ~doc:"Restrict the advisor to these sites (repeatable).")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot-dir" ] ~docv:"DIR"
          ~doc:
            "Write each spec-violating witness execution as Graphviz DOT into $(docv), with the \
             weakened site's actions and its reads-from edges highlighted.")
  in
  Term.(
    const (fun name all json advise max_execs time_budget jobs sites dot_dir ->
        let only_sites = match sites with [] -> None | l -> Some l in
        exit_of
          (with_limits ?time_budget max_execs (fun () ->
               lint_cmd name all json advise max_execs time_budget jobs only_sites dot_dir)))
    $ bench $ all $ json $ advise $ max_execs $ time_budget $ jobs_term $ sites $ dot_dir)

let serve_term =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent cross-run result store shared by all jobs (see $(b,check --store)); \
             flushed wholesale on engine-revision changes.")
  in
  Term.(
    const (fun socket jobs store_dir -> exit_of (serve_cmd socket jobs store_dir))
    $ socket $ jobs_term $ store_dir)

let client_term =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the daemon listens on.")
  in
  let op =
    Arg.(
      value & pos 0 string "check"
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,check), $(b,lint), $(b,fuzz) (job ops, streamed), or $(b,ping), \
             $(b,list), $(b,shutdown).")
  in
  let bench = Arg.(value & pos 1 (some string) None & info [] ~docv:"BENCHMARK") in
  let test =
    Arg.(
      value & opt (some string) None & info [ "t"; "test" ] ~docv:"TEST" ~doc:"Run only this unit test.")
  in
  let overrides =
    Arg.(
      value & opt_all ord_conv []
      & info [ "o"; "ord" ] ~docv:"SITE=ORDER" ~doc:"Pin a site's order for the submitted job.")
  in
  let max_execs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-executions" ] ~docv:"N" ~doc:"Per-test exploration cap for the submitted job.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw NDJSON event stream instead of human-readable text.")
  in
  Term.(
    const (fun socket op bench test overrides max_execs json ->
        exit_of
          (with_limits max_execs (fun () ->
               client_cmd socket op bench test overrides max_execs json)))
    $ socket $ op $ bench $ test $ overrides $ max_execs $ json)

let cmds =
  [
    Cmd.v (Cmd.info "list" ~doc:"List benchmarks, unit tests and memory-order sites.")
      Term.(const list_cmd $ const ());
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Aggregate per-site dynamic facts across all feasible executions, report memory-order \
            lint findings, and optionally advise which sites are provably weakenable.")
      lint_term;
    Cmd.v
      (Cmd.info "check"
         ~doc:"Model-check a benchmark's unit tests against its CDSSpec specification.")
      check_term;
    Cmd.v
      (Cmd.info "inject" ~doc:"Weaken each site in turn and report how each injection is caught.")
      Term.(const (fun name jobs -> exit_of (inject_cmd name jobs)) $ bench_arg $ jobs_term);
    Cmd.v
      (Cmd.info "litmus" ~doc:"Run the litmus-test corpus (or one named test).")
      Term.(
        const (fun filter -> exit_of (litmus_cmd filter))
        $ Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"));
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the checking daemon: accept check/lint/fuzz jobs over a Unix-domain socket \
            (newline-delimited JSON), shard them across a resident worker-domain pool, stream \
            progress and verdicts, and reuse results across runs through the persistent store.")
      serve_term;
    Cmd.v
      (Cmd.info "client"
         ~doc:
           "Submit a job to a running $(b,serve) daemon and watch its event stream ($(b,--json) \
            for the raw protocol).")
      client_term;
  ]

let () =
  let doc = "CDSSpec: check concurrent data structures under the C/C++11 memory model" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "cdsspec_run" ~doc) cmds))
