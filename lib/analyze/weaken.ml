module Mo = C11.Memory_order
module Ords = Structures.Ords
module B = Structures.Benchmark
module AS = Access_summary

type config = { max_executions : int option; jobs : int; time_budget : float option }

let default_config =
  { max_executions = AS.default_config.AS.max_executions; jobs = 1; time_budget = None }

(* Bound on the serial witness search. *)
let max_witness_runs = 200_000

type verdict =
  | Safe_to_weaken
  | Behaviour_changing of { new_behaviours : int; lost_behaviours : int }
  | Spec_violating of { bug : string; witness : string option; witness_test : string option }

type candidate = {
  site : string;
  from_order : Mo.t;
  to_order : Mo.t;
  verdict : verdict;
  explored : int;
  time : float;
  lint_predicted : bool;
  agrees_with_lint : bool option;
  witness_exec : C11.Execution.t option;
}

type report = {
  bench : string;
  baseline_behaviours : int;
  candidates : candidate list;
  truncated : bool;
  time : float;
}

let verdict_to_string = function
  | Safe_to_weaken -> "safe-to-weaken"
  | Behaviour_changing { new_behaviours; lost_behaviours } ->
    Printf.sprintf "behaviour-changing (+%d/-%d)" new_behaviours lost_behaviours
  | Spec_violating { bug; _ } -> Printf.sprintf "spec-violating (%s)" bug

(* Serial DFS for a replayable counterexample: the advisor's exhaustive
   pass may find the bug under sleep-set reduction, whose decision
   indices do not replay under `--replay` (replay runs with sleep sets
   off). Re-search with the exact replay semantics, capped. *)
let find_witness ~(scheduler : Mc.Scheduler.config) ~spec program =
  let config = { scheduler with Mc.Scheduler.sleep_sets = false } in
  let trace : Mc.Scheduler.decision C11.Vec.t = C11.Vec.create () in
  let rec loop runs =
    if runs >= max_witness_runs then None
    else begin
      let r = Mc.Scheduler.run ~config ~trace program in
      let bugs =
        match r.outcome with
        | Mc.Scheduler.Complete ->
          if r.bugs <> [] then r.bugs
          else Cdsspec.Checker.hook spec r.exec r.annots
        | _ -> []
      in
      if bugs <> [] then begin
        let decisions =
          List.init (C11.Vec.length trace) (fun i ->
              Mc.Scheduler.decision_chosen (C11.Vec.get trace i))
        in
        Some (decisions, r.exec)
      end
      else if Mc.Explorer.backtrack trace then loop (runs + 1)
      else None
    end
  in
  loop 0

(* Explore every unit test under [ords] with the checker attached,
   collecting behaviour fingerprints per test. Stops at the first test
   with a bug: the verdict is already decided. *)
let explore_tests ~config (b : B.t) ords =
  let mu = Mutex.create () in
  let explored = ref 0 in
  let first_bug = ref None in
  let sets = ref [] in
  (try
     List.iter
       (fun (t : B.test) ->
         let bset = AS.behaviour_set_create () in
         let on_feasible exec annots =
           Mutex.protect mu (fun () -> AS.behaviour_add bset exec);
           Cdsspec.Checker.hook b.spec exec annots
         in
         let econfig =
           {
             Mc.Explorer.default_config with
             scheduler = b.scheduler;
             max_executions = config.max_executions;
             (* The advisor's evidence counters are per-execution, like
                the access summary's: keep interleaving counts exact. *)
             prune = false;
           }
         in
         let r =
           if config.jobs > 1 then
             Mc.Parallel.explore ~config:econfig ~on_feasible ~jobs:config.jobs (t.program ords)
           else Mc.Explorer.explore ~config:econfig ~on_feasible (t.program ords)
         in
         explored := !explored + r.stats.explored;
         sets := (t.test_name, bset) :: !sets;
         match r.bugs with
         | bug :: _ ->
           first_bug := Some (bug, t);
           raise Exit
         | [] -> ())
       b.tests
   with Exit -> ());
  (!first_bug, List.rev !sets, !explored)

let advise ?(config = default_config) ?only_sites ?(findings = []) (b : B.t)
    ~(summary : AS.t) =
  let t0 = Mc.Monotonic.now () in
  let deadline = Option.map (fun s -> t0 +. s) config.time_budget in
  let baseline_behaviours =
    List.fold_left (fun acc (_, set) -> acc + AS.behaviour_cardinal set) 0 summary.AS.test_behaviours
  in
  let truncated = ref false in
  let candidates =
    if summary.AS.bugs <> [] then []
    else
      Ords.weakenable b.sites
      |> List.filter (fun (s : Ords.site) ->
             match only_sites with None -> true | Some names -> List.mem s.name names)
      |> List.concat_map (fun (s : Ords.site) ->
             let lint_predicted = Lint.predicts_weakenable findings s.name in
             Ords.downgrades s
             |> List.mapi (fun step to_order -> (step, to_order))
             |> List.filter_map (fun (step, to_order) ->
                    let expired =
                      match deadline with
                      | Some d -> Mc.Monotonic.now () > d
                      | None -> false
                    in
                    if expired then begin
                      truncated := true;
                      None
                    end
                    else begin
                      let t1 = Mc.Monotonic.now () in
                      let ords = Ords.with_order b.sites s.name to_order in
                      let first_bug, sets, explored = explore_tests ~config b ords in
                      let verdict, witness_exec =
                        match first_bug with
                        | Some (bug, t) ->
                          let witness =
                            find_witness ~scheduler:b.scheduler ~spec:b.spec (t.program ords)
                          in
                          ( Spec_violating
                              {
                                bug = Mc.Bug.key bug;
                                witness =
                                  Option.map
                                    (fun (ds, _) -> Fuzz.Engine.trace_to_string ds)
                                    witness;
                                witness_test = Some t.test_name;
                              },
                            Option.map snd witness )
                        | None ->
                          let news, losts =
                            List.fold_left
                              (fun (n, l) (test_name, cand) ->
                                match List.assoc_opt test_name summary.AS.test_behaviours with
                                | None -> (n, l)
                                | Some base ->
                                  let dn, dl =
                                    AS.behaviour_diff ~baseline:base ~candidate:cand
                                  in
                                  (n + dn, l + dl))
                              (0, 0) sets
                          in
                          if news = 0 && losts = 0 then (Safe_to_weaken, None)
                          else
                            ( Behaviour_changing
                                { new_behaviours = news; lost_behaviours = losts },
                              None )
                      in
                      let agrees_with_lint =
                        if step = 0 then Some (lint_predicted = (verdict = Safe_to_weaken))
                        else None
                      in
                      Some
                        {
                          site = s.name;
                          from_order = s.order;
                          to_order;
                          verdict;
                          explored;
                          time = Mc.Monotonic.now () -. t1;
                          lint_predicted;
                          agrees_with_lint;
                          witness_exec;
                        }
                    end))
  in
  {
    bench = b.name;
    baseline_behaviours;
    candidates;
    truncated = !truncated;
    time = Mc.Monotonic.now () -. t0;
  }
