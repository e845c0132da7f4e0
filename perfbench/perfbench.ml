(* The benchmark program: runs one workload as a user would (cdsspec_run
   check, check --fuzz, or requests to a cdsspec_run serve daemon) and
   prints one JSON result line. run.py builds it and relays the line.

     perfbench.exe WORKLOAD --seed N --seconds S --trace 0|1 [--daemon PATH]

   A run does a fixed amount of work sized from [--seconds] (so peak
   memory, which grows with the work done, does not follow machine
   speed): several set-ups, each timed, then timed passes or rounds of
   jobs. With [--trace 0] it reports the end-to-end metrics; with
   [--trace 1] it alternates untraced and traced units and reports the
   per-layer metrics derived from the spans, plus the tracing
   overhead. *)

open Jobs
module E = Mc.Explorer
module J = Analyze.Json

let now = Mc.Monotonic.now

(* ------------------------------------------------------------------ *)
(* Failure accounting and count identity *)

let attempted = ref 0
let failed = ref 0

let fail label msg =
  incr failed;
  if !failed <= 20 then Printf.eprintf "perfbench: FAIL %s: %s\n%!" label msg

(* A job that takes longer than this counts as failed. *)
let job_timeout = 60.

(* The counts every run of one job must reproduce exactly: across
   passes, and between the traced and untraced runs. *)
let signatures : (string, int array) Hashtbl.t = Hashtbl.create 128

let same_counts key counts =
  match Hashtbl.find_opt signatures key with
  | None ->
    Hashtbl.replace signatures key counts;
    true
  | Some c -> c = counts

let explorer_counts (s : E.stats) =
  [|
    s.explored; s.feasible; s.distinct_graphs; s.pruned_equiv; s.pruned_sleep_set;
    s.pruned_loop_bound; s.commits; s.snapshots; s.restores; s.fiber_switches; s.inline_ops;
    s.rf_queries; s.rf_fast; s.rf_rejected; s.check.cache_hits; s.check.cache_misses;
    s.check.histories_truncated; s.check.prefixes_truncated;
  |]

(* Known answer: the expected verdict, no truncated history
   enumeration, no truncated exploration, and the same counts as every
   earlier run of the job. *)
let judge ?(key = "") (j : job) ~latency ~bugs ~truncated ~hist_trunc ~counts =
  incr attempted;
  let verdict_ok =
    match j.expect with
    | Clean -> bugs = []
    | Bug prefix -> List.exists (String.starts_with ~prefix) bugs
  in
  if not verdict_ok then
    fail j.label
      (Printf.sprintf "expected %s, got [%s]"
         (match j.expect with Clean -> "no bug" | Bug prefix -> prefix ^ "*")
         (String.concat "; " bugs))
  else if hist_trunc > 0 then fail j.label "history enumeration truncated"
  else if truncated then fail j.label "exploration truncated"
  else if latency > job_timeout then fail j.label "timed out"
  else if not (same_counts (j.label ^ key) counts) then
    fail j.label "counts differ from an earlier run"

(* ------------------------------------------------------------------ *)
(* The layer calls *)

(* [cdsspec_run check]: the store-less CLI path under its defaults. The
   mode arguments are read from the library's defaults rather than
   chosen; the check cache is on, as it is unless [--no-check-cache]. *)
let cli_check ?store (j : job) =
  Store.explore_checked ?store ~checker:Cdsspec.Checker.default_config ~use_cache:true
    ~max_execs:j.max_execs ~jobs:1 ~prune:E.default_config.prune
    ~engine:E.default_config.engine j.bench ~ords:j.ords j.test

(* The checker hook, wrapped in a span when tracing. *)
let checker_hook ~job ~parent (j : job) cache =
  let hook = Cdsspec.Checker.hook ~cache j.bench.spec in
  if not !Trace.enabled then hook
  else fun exec annots ->
    let start = now () in
    let r = hook exec annots in
    ignore (Trace.record ~name:"cdsspec.check" ~job ~parent ~start ~stop:(now ()));
    r

(* The traced twin of [cli_check]: [Store.explore_checked] builds its
   own checker hook, so the traced run calls the explorer it wraps with
   the same configuration and a timed hook. *)
let traced_check ~job (j : job) =
  Trace.with_span "mc.explore" ~job (fun parent ->
      let cache = Cdsspec.Checker.create_cache () in
      E.explore
        ~config:
          { E.default_config with scheduler = j.bench.scheduler; max_executions = j.max_execs }
        ~on_feasible:(checker_hook ~job ~parent j cache)
        ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
        (j.test.program j.ords))

(* [cdsspec_run check --fuzz --seed S --max-executions N]. *)
let cli_fuzz ~job ~seed (j : job) =
  Trace.with_span "fuzz.run" ~job (fun parent ->
      let cache = Cdsspec.Checker.create_cache () in
      Fuzz.Engine.run
        ~config:
          {
            Fuzz.Engine.default_config with
            scheduler = { j.bench.scheduler with Mc.Scheduler.sleep_sets = false };
            max_executions = j.max_execs;
          }
        ~on_feasible:(checker_hook ~job ~parent j cache)
        ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
        ~seed (j.test.program j.ords))

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between order statistics (numpy's default). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  done;
  a

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Workload results *)

(* One timed job: its label and its submit-to-verdict time. *)
type sample = { label : string; latency : float }

(* A unit is a pass or round: jobs run back to back (or over the serve
   connections), timed as a whole. *)
type unit_result = { wall : float; samples : sample list }

type metric = { name : string; unit_ : string; value : float }

(* The median is taken over the workload's jobs of each job's median
   time, so a short stall moves no job's figure and the two-job rounds
   of history do not put it in the gap between their jobs. The 90th
   percentile is over every timed job. *)
let end_to_end ~setups ~(units : unit_result list) ~rss =
  let samples = List.concat_map (fun u -> u.samples) units in
  let lat = List.map (fun s -> s.latency *. 1000.) samples in
  let by_job = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add by_job s.label (s.latency *. 1000.)) samples;
  let job_medians =
    List.map
      (fun label -> median (Hashtbl.find_all by_job label))
      (List.sort_uniq compare (List.map (fun s -> s.label) samples))
  in
  let throughput = List.map (fun u -> float_of_int (List.length u.samples) /. u.wall) units in
  [
    { name = "setup_s"; unit_ = "s"; value = median setups };
    { name = "verdict_p50_ms"; unit_ = "ms"; value = median job_medians };
    { name = "verdict_p90_ms"; unit_ = "ms"; value = quantile 0.9 lat };
    { name = "jobs_per_s"; unit_ = "1/s"; value = median throughput };
    { name = "peak_rss_mb"; unit_ = "MB"; value = rss };
  ]

(* What the client sees of one serve job. *)
type reply = {
  r_latency : float;
  r_accept : float;  (* until the "accepted" event *)
  r_events : int;
  r_server_time : float;  (* the result event's exploration time *)
}

(* What the store probe sees. *)
type probe = {
  loads_ms : float list;  (* [Store.load] on its own, per job *)
  hit_self_ms : float list;  (* [explore_checked] minus exploring, per hit *)
  rewrites : int;  (* hits whose entry file changed inode *)
  lookups : int;
  entry_kb : float list;
  corrupt : int;
}

(* What the traced run collects. Every layer is reported on every
   workload; a layer the workload bypasses reads zero. *)
type layers = {
  mutable explorer : E.stats list;  (* Mc.Explorer.explore results *)
  mutable fuzz : Fuzz.Engine.stats list;
  mutable spans : Trace.span list;
  mutable explore_time : float;
      (* [stats.time] of explorations no span can wrap (the serve probe's) *)
  mutable probe : probe;
  mutable replies : reply list;
  mutable traced_wall : float list;
  mutable untraced_wall : float list;
}

let new_layers () =
  {
    explorer = [];
    fuzz = [];
    spans = [];
    explore_time = 0.;
    probe =
      { loads_ms = []; hit_self_ms = []; rewrites = 0; lookups = 0; entry_kb = []; corrupt = 0 };
    replies = [];
    traced_wall = [];
    untraced_wall = [];
  }

let ratio a b = if b = 0. then 0. else a /. b

let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs))

let per_layer (l : layers) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 l.explorer in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0. l.explorer in
  let fsum f = List.fold_left (fun acc s -> acc + f s) 0 l.fuzz in
  let explored = float_of_int (sum (fun (s : E.stats) -> s.explored)) in
  let mc_self = Trace.self_time ~name:"mc.explore" l.spans +. l.explore_time in
  let check_s = Trace.total ~name:"cdsspec.check" l.spans in
  let checks = Trace.count ~name:"cdsspec.check" l.spans in
  let hits =
    sum (fun (s : E.stats) -> s.check.cache_hits)
    + fsum (fun (s : Fuzz.Engine.stats) -> s.check.cache_hits)
  in
  let misses =
    sum (fun (s : E.stats) -> s.check.cache_misses)
    + fsum (fun (s : Fuzz.Engine.stats) -> s.check.cache_misses)
  in
  let fuzz_execs = float_of_int (fsum (fun (s : Fuzz.Engine.stats) -> s.executions)) in
  let p = l.probe in
  let store_hits = float_of_int (List.length p.hit_self_ms) in
  let c name unit_ value = { name; unit_; value } in
  let n name f = c name "count" (float_of_int (sum f)) in
  [
    c "mc.self_s" "s" mc_self;
    c "mc.us_per_exec" "us" (ratio (mc_self *. 1e6) explored);
    c "mc.explored" "count" explored;
    c "mc.feasible_ratio" "ratio" (ratio (float_of_int (sum (fun s -> s.feasible))) explored);
    n "mc.restores" (fun s -> s.restores);
    n "mc.snapshots" (fun s -> s.snapshots);
    n "mc.fiber_switches" (fun s -> s.fiber_switches);
    n "mc.inline_ops" (fun s -> s.inline_ops);
    n "mc.pruned_equiv" (fun s -> s.pruned_equiv);
    n "mc.pruned_loop_bound" (fun s -> s.pruned_loop_bound);
    n "mc.pruned_sleep_set" (fun s -> s.pruned_sleep_set);
    n "mc.distinct_graphs" (fun s -> s.distinct_graphs);
    c "mc.minor_words_per_exec" "words" (ratio (sumf (fun s -> s.minor_words)) explored);
    c "c11.commits_per_exec" "ratio" (ratio (float_of_int (sum (fun s -> s.commits))) explored);
    n "c11.rf_queries" (fun s -> s.rf_queries);
    c "c11.rf_fast_ratio" "ratio"
      (ratio
         (float_of_int (sum (fun s -> s.rf_fast)))
         (float_of_int (sum (fun s -> s.rf_queries))));
    n "c11.rf_rejected" (fun s -> s.rf_rejected);
    c "cdsspec.check_s" "s" check_s;
    c "cdsspec.checks" "count" (float_of_int checks);
    c "cdsspec.us_per_check" "us" (ratio (check_s *. 1e6) (float_of_int checks));
    c "cdsspec.cache_hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
    c "cdsspec.histories_truncated" "count"
      (float_of_int
         (sum (fun s -> s.check.histories_truncated)
         + fsum (fun (s : Fuzz.Engine.stats) -> s.check.histories_truncated)));
    c "fuzz.self_s" "s" (Trace.self_time ~name:"fuzz.run" l.spans);
    c "fuzz.executions" "count" fuzz_execs;
    c "fuzz.coverage_ratio" "ratio"
      (ratio (float_of_int (fsum (fun (s : Fuzz.Engine.stats) -> s.coverage))) fuzz_execs);
    c "store.load_ms" "ms" (median p.loads_ms);
    c "store.self_ms_per_hit" "ms" (median p.hit_self_ms);
    c "store.rewrites_per_hit" "ratio" (ratio (float_of_int p.rewrites) store_hits);
    c "store.entry_kb" "KiB" (mean p.entry_kb);
    c "store.hit_ratio" "ratio" (ratio store_hits (float_of_int p.lookups));
    c "store.corrupt" "count" (float_of_int p.corrupt);
    c "serve.overhead_ms" "ms"
      (median (List.map (fun r -> (r.r_latency -. r.r_server_time) *. 1000.) l.replies));
    c "serve.accept_ms" "ms" (median (List.map (fun r -> r.r_accept *. 1000.) l.replies));
    c "serve.events_per_job" "count" (mean (List.map (fun r -> float_of_int r.r_events) l.replies));
    c "trace.overhead_ratio" "ratio" (ratio (median l.traced_wall) (median l.untraced_wall) -. 1.);
  ]

(* ------------------------------------------------------------------ *)
(* In-process workloads: registry, history *)

let seq = ref 0

let next_job () =
  incr seq;
  !seq

(* Run one job the way its workload's user does: a fuzz campaign when
   given a [campaign_seed], an exhaustive check otherwise. Returns the
   sample and records what the traced run needs into [layers]. *)
let run_job ?layers ~campaign_seed (j : job) =
  let job = next_job () in
  let t0 = now () in
  let sample () = { label = j.label; latency = now () -. t0 } in
  match campaign_seed with
  | Some seed ->
    let r = cli_fuzz ~job ~seed j in
    let s = sample () in
    let st = r.stats in
    judge ~key:(string_of_int seed) j ~latency:s.latency
      ~bugs:(List.map (fun (f : Fuzz.Engine.found) -> Mc.Bug.key f.bug) r.found)
      ~truncated:st.truncated ~hist_trunc:st.check.histories_truncated
      ~counts:
        [| st.executions; st.feasible; st.coverage; st.check.cache_hits; st.check.cache_misses |];
    Option.iter (fun l -> l.fuzz <- st :: l.fuzz) layers;
    s
  | None ->
    let r = if !Trace.enabled then traced_check ~job j else fst (cli_check j) in
    let s = sample () in
    judge j ~latency:s.latency ~bugs:(List.map Mc.Bug.key r.bugs) ~truncated:r.stats.truncated
      ~hist_trunc:r.stats.check.histories_truncated ~counts:(explorer_counts r.stats);
    Option.iter (fun l -> l.explorer <- r.stats :: l.explorer) layers;
    s

(* A unit of an in-process workload: the job list in a seeded order,
   with a campaign seed per job for fuzz workloads. *)
type plan = (job * int option) array

let run_unit ?layers (plan : plan) =
  let t0 = now () in
  let samples =
    Array.to_list (Array.map (fun (j, campaign_seed) -> run_job ?layers ~campaign_seed j) plan)
  in
  { wall = now () -. t0; samples }

(* [plans ~seed w k] is unit [k]'s plan: registry passes reshuffle the
   68 jobs, history rounds draw fresh campaign seeds. Everything comes
   from the workload seed. *)
let plans ~seed workload =
  let jobs, fuzz =
    match workload with
    | "registry" -> (Array.of_list Jobs.registry, false)
    | "history" -> (Array.of_list Jobs.history, true)
    | w -> failwith ("perfbench: unknown in-process workload " ^ w)
  in
  fun k ->
    let rng = Random.State.make [| seed; k |] in
    Array.map
      (fun j -> (j, if fuzz then Some (Random.State.bits rng) else None))
      (shuffle rng jobs)

(* Timed units per run: [rate] units per second of [--seconds], and at
   least 100 timed jobs so that ten lie beyond the 90th percentile. *)
let quota ~seconds ~rate ~jobs_per_unit =
  let ceil x = int_of_float (Float.ceil x) in
  max (ceil (100. /. float_of_int jobs_per_unit)) (ceil (float_of_int seconds *. rate))

let setups = 3

(* A set-up is [setup_units] units run back to back, so that it spans
   many jobs. *)
let in_process ~seed ~seconds ~trace ~rate ~setup_units workload =
  let plan = plans ~seed workload in
  let units = quota ~seconds ~rate ~jobs_per_unit:(Array.length (plan 0)) in
  if not trace then begin
    let setup =
      List.init setups (fun k ->
          List.fold_left ( +. ) 0.
            (List.init setup_units (fun i -> (run_unit (plan ((k * setup_units) + i))).wall)))
    in
    let first = setups * setup_units in
    let timed = List.init units (fun k -> run_unit (plan (first + k))) in
    `End_to_end (end_to_end ~setups:setup ~units:timed ~rss:(peak_rss_mb "self"))
  end
  else begin
    (* One warm-up unit, then untraced/traced pairs over the same plan,
       so both halves of a pair must report identical counts. *)
    let layers = new_layers () in
    ignore (run_unit (plan 0));
    let pairs = max 2 (units / 4) in
    for k = 1 to pairs do
      let u = run_unit (plan k) in
      layers.untraced_wall <- u.wall :: layers.untraced_wall;
      Trace.enabled := true;
      let t = run_unit ~layers (plan k) in
      Trace.enabled := false;
      layers.traced_wall <- t.wall :: layers.traced_wall
    done;
    layers.spans <- Trace.all ();
    `Per_layer layers
  end

(* ------------------------------------------------------------------ *)
(* The serve workload: a cdsspec_run serve daemon, driven closed-loop
   over two connections with the registry job list. *)

module C = Serve.Client

(* Sockets, daemon stores and span files, inside the checkout. *)
let scratch = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type daemon = {
  pid : int;
  socket : string;
  store_dir : string;
  conns : C.t array;
  mutable running : bool;
}

(* The daemon runs at the CLI's default of one worker. *)
let start_daemon ~exe ~tag =
  let socket = Filename.concat scratch (Printf.sprintf "d%d.sock" tag) in
  let store_dir = Filename.concat scratch (Printf.sprintf "store%d" tag) in
  rm_rf store_dir;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--store"; store_dir |]
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 30. in
  let rec connect () =
    match C.connect socket with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.002;
      connect ()
  in
  let conns = Array.init 2 (fun _ -> connect ()) in
  C.send conns.(0) (J.Obj [ ("op", J.Str "ping") ]);
  (match C.recv ~timeout:30. conns.(0) with
  | C.Msg _ -> ()
  | _ -> failwith "perfbench: daemon did not answer ping");
  { pid; socket; store_dir; conns; running = true }

let stop_daemon d =
  if d.running then begin
    d.running <- false;
    (try
       C.send d.conns.(0) (J.Obj [ ("op", J.Str "shutdown") ]);
       ignore (C.recv ~timeout:30. d.conns.(0))
     with Failure _ | Unix.Unix_error _ -> ());
    Array.iter C.close d.conns;
    match Unix.waitpid [] d.pid with _ -> () | exception Unix.Unix_error _ -> ()
  end

let discard d =
  stop_daemon d;
  rm_rf d.store_dir

type served = Served of reply | Failed | Timed_out

(* Both connection threads judge jobs; the failure counters and the
   count signatures are shared. *)
let accounting = Mutex.create ()

(* Submit one check and wait for its verdict; judged against the job's
   known answer. Every outcome but [Served] counts as a failed job. *)
let serve_job ~phase conn (j : job) =
  let req =
    J.Obj
      ([ ("op", J.Str "check"); ("bench", J.Str j.bench.name); ("test", J.Str j.test.test_name) ]
      @
      match j.weaken with
      | Some site -> [ ("overrides", J.List [ J.List [ J.Str site; J.Str "relaxed" ] ]) ]
      | None -> [])
  in
  let job = next_job () in
  let t0 = now () in
  let accept = ref 0. and events = ref 0 and bugs = ref [] and truncated = ref false in
  let server_time = ref 0. and disposition = ref "" and counts = ref [||] in
  let rec loop () =
    match C.recv ~timeout:job_timeout conn with
    | C.Eof -> Error (Failed, "daemon dropped the connection")
    | C.Timeout -> Error (Timed_out, "timed out")
    | C.Msg ev -> (
      incr events;
      match Option.bind (J.member "event" ev) J.to_str with
      | Some "accepted" ->
        accept := now () -. t0;
        loop ()
      | Some "result" ->
        let int name = Option.value (Option.bind (J.member name ev) J.to_int) ~default:(-1) in
        (match J.member "bugs" ev with
        | Some (J.List l) ->
          bugs := List.filter_map (fun b -> Option.bind (J.member "key" b) J.to_str) l
        | _ -> ());
        truncated := J.member "truncated" ev = Some (J.Bool true);
        (server_time :=
           match J.member "time" ev with
           | Some (J.Float f) -> f
           | Some (J.Int i) -> float_of_int i
           | _ -> 0.);
        disposition := Option.value (Option.bind (J.member "store" ev) J.to_str) ~default:"";
        counts := [| int "explored"; int "feasible"; int "distinct_graphs" |];
        loop ()
      | Some "done" -> Ok ()
      | Some "error" ->
        Error
          ( Failed,
            Printf.sprintf "daemon error: %s"
              (Option.value (Option.bind (J.member "message" ev) J.to_str) ~default:"?") )
      | _ -> loop ())
  in
  let outcome =
    try
      C.send conn req;
      loop ()
    with
    | Failure m -> Error (Failed, m)
    | Unix.Unix_error (e, _, _) -> Error (Failed, Unix.error_message e)
  in
  let latency = now () -. t0 in
  if !Trace.enabled then begin
    let parent = Trace.record ~name:"serve.job" ~job ~parent:(-1) ~start:t0 ~stop:(t0 +. latency) in
    ignore (Trace.record ~name:"serve.accept" ~job ~parent ~start:t0 ~stop:(t0 +. !accept))
  end;
  Mutex.protect accounting @@ fun () ->
  match outcome with
  | Error (outcome, m) ->
    incr attempted;
    fail j.label m;
    outcome
  | Ok () ->
    judge ~key:phase j ~latency ~bugs:!bugs ~truncated:!truncated ~hist_trunc:0
      ~counts:(Array.append [| Hashtbl.hash !disposition |] !counts);
    Served
      {
        r_latency = latency;
        r_accept = !accept;
        r_events = !events;
        r_server_time = !server_time;
      }

(* One pass: the seeded job order, pulled closed-loop by one thread per
   connection. A timed-out job's events may still arrive on its
   connection, so the next job gets a fresh one; a connection that
   cannot be replaced stops, and jobs no connection took count as
   failed. *)
let serve_pass ~phase d (order : job array) =
  let next = ref 0 and mu = Mutex.create () in
  let replies = ref [] in
  let take () =
    Mutex.protect mu (fun () ->
        let k = !next in
        incr next;
        if k < Array.length order then Some order.(k) else None)
  in
  let drive k =
    let rec go () =
      match take () with
      | None -> ()
      | Some j -> (
        match serve_job ~phase d.conns.(k) j with
        | Served r ->
          Mutex.protect mu (fun () -> replies := (j, r) :: !replies);
          go ()
        | Failed -> go ()
        | Timed_out -> (
          match C.connect d.socket with
          | fresh ->
            C.close d.conns.(k);
            d.conns.(k) <- fresh;
            go ()
          | exception Unix.Unix_error _ -> ()))
    in
    go ()
  in
  let t0 = now () in
  let threads = Array.init (Array.length d.conns) (Thread.create drive) in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  Array.iter
    (fun (j : job) ->
      incr attempted;
      fail j.label "no connection left to submit it")
    (Array.sub order (min !next (Array.length order)) (max 0 (Array.length order - !next)));
  (wall, !replies)

let unit_of (wall, replies) =
  let sample ((j : job), r) = { label = j.label; latency = r.r_latency } in
  { wall; samples = List.map sample replies }

(* Store probe, from outside the daemon: replay the job list in-process
   through [Store.explore_checked] on the daemon's store, time
   [Store.load] on its own, and detect entry rewrites by inode. *)
let store_probe ~store_dir (layers : layers) (order : job array) =
  let s = Store.open_dir store_dir in
  let key (j : job) =
    Store.job_key ~kind:`Check ~bench:j.bench.name ~test:j.test.test_name
      ~ords:(Structures.Ords.to_list j.ords) ~sched:j.bench.scheduler ~prune:E.default_config.prune
      ~engine:E.default_config.engine ~max_execs:None ~checker:Cdsspec.Checker.default_config
      ~use_cache:true
  in
  let entry j = Filename.concat store_dir (Store.fingerprint (key j) ^ ".bin") in
  let inode path = try Some (Unix.stat path).Unix.st_ino with Unix.Unix_error _ -> None in
  let loads = ref [] and self = ref [] and rewrites = ref 0 in
  let entry_kb =
    List.filter_map
      (fun j ->
        try Some (float_of_int (Unix.stat (entry j)).Unix.st_size /. 1024.)
        with Unix.Unix_error _ -> None)
      (Array.to_list order)
  in
  Array.iter
    (fun (j : job) ->
      let job = next_job () in
      let k = key j in
      let t0 = now () in
      ignore (Store.load s k);
      let t1 = now () in
      ignore (Trace.record ~name:"store.load" ~job ~parent:(-1) ~start:t0 ~stop:t1);
      loads := (t1 -. t0) *. 1000. :: !loads;
      let before = inode (entry j) in
      let t0 = now () in
      let r, disposition = cli_check ~store:s j in
      let t1 = now () in
      ignore (Trace.record ~name:"store.explore_checked" ~job ~parent:(-1) ~start:t0 ~stop:t1);
      judge ~key:"probe" j ~latency:(t1 -. t0) ~bugs:(List.map Mc.Bug.key r.bugs)
        ~truncated:r.stats.truncated ~hist_trunc:r.stats.check.histories_truncated
        ~counts:(explorer_counts r.stats);
      layers.explorer <- r.stats :: layers.explorer;
      layers.explore_time <- layers.explore_time +. r.stats.time;
      if disposition = `Hit then begin
        self := (t1 -. t0 -. r.stats.time) *. 1000. :: !self;
        if inode (entry j) <> before then incr rewrites
      end)
    order;
  layers.probe <-
    {
      loads_ms = !loads;
      hit_self_ms = !self;
      rewrites = !rewrites;
      lookups = Array.length order;
      entry_kb;
      corrupt = (Store.stats s).corrupt;
    }

let serve ~seed ~seconds ~trace ~exe =
  let jobs = Array.of_list Jobs.registry in
  let order k = shuffle (Random.State.make [| seed; k |]) jobs in
  let units = quota ~seconds ~rate:6. ~jobs_per_unit:(Array.length jobs) in
  let setup tag =
    let t0 = now () in
    let d = start_daemon ~exe ~tag in
    ignore (serve_pass ~phase:"cold" d (order tag));
    (d, now () -. t0)
  in
  if not trace then begin
    (* Each set-up starts a daemon on an empty store and fills it; the
       last one serves the timed passes. Earlier stores are deleted only
       after the run, so their deletion I/O does not land in it. *)
    let daemons =
      List.init setups (fun k ->
          let d, dt = setup k in
          if k < setups - 1 then stop_daemon d;
          (d, dt))
    in
    Fun.protect ~finally:(fun () -> List.iter (fun (d, _) -> discard d) daemons) @@ fun () ->
    let d = fst (List.nth daemons (setups - 1)) and setup_times = List.map snd daemons in
    let timed =
      List.init units (fun k -> unit_of (serve_pass ~phase:"warm" d (order (setups + k))))
    in
    `End_to_end
      (end_to_end ~setups:setup_times ~units:timed ~rss:(peak_rss_mb (string_of_int d.pid)))
  end
  else begin
    let layers = new_layers () in
    let d, _ = setup 0 in
    Fun.protect ~finally:(fun () -> discard d) (fun () ->
        for k = 1 to max 2 (units / 4) do
          let wall, _ = serve_pass ~phase:"warm" d (order k) in
          layers.untraced_wall <- wall :: layers.untraced_wall;
          Trace.enabled := true;
          let wall, r = serve_pass ~phase:"warm" d (order k) in
          Trace.enabled := false;
          layers.traced_wall <- wall :: layers.traced_wall;
          layers.replies <- List.map snd r @ layers.replies
        done;
        (* The probe needs the daemon gone: it opens the same store. *)
        stop_daemon d;
        Trace.enabled := true;
        store_probe ~store_dir:d.store_dir layers (order 0);
        Trace.enabled := false);
    layers.spans <- Trace.all ();
    `Per_layer layers
  end

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let correct = !failed = 0 && !attempted > 0 in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (sizes the work)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--daemon", Arg.Set_string daemon, "PATH cdsspec_run executable (serve)");
    ]
    (fun w -> workload := w)
    "perfbench.exe WORKLOAD --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (* A dead daemon must show as failed jobs, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let result =
    match !workload with
    (* Rates size a run to about [--seconds] of timed work on a 2-vCPU
       host, except the registry's: it is cut to a third so that its
       fiber-stack growth stays under 1.5 GB. A registry set-up is one
       68-job pass, a history set-up four rounds (eight campaigns). *)
    | "registry" -> in_process ~seed ~seconds ~trace ~rate:0.33 ~setup_units:1 "registry"
    | "history" -> in_process ~seed ~seconds ~trace ~rate:5. ~setup_units:4 "history"
    | "serve" -> serve ~seed ~seconds ~trace ~exe:!daemon
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  match result with
  | `End_to_end metrics -> print_result metrics
  | `Per_layer layers ->
    Trace.write (Filename.concat scratch (!workload ^ ".trace.json")) layers.spans;
    print_result (per_layer layers)
