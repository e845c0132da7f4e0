module Vec = C11.Vec

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)

(* [results] must arrive in DFS (canonical-prefix) order — never
   completion order — so parallel runs report the serial explorer's bug
   list order and first buggy execution. [check] is a single end-of-run
   snapshot of the (shared) checking-hook counters: per-subtree
   snapshots of a cache shared across domains are cumulative at whatever
   moment each subtree finished, so summing them would double-count. *)
let merge ~t0 ~stopped ~check (results : Explorer.result list) : Explorer.result =
  let zero = { Explorer.no_stats with truncated = stopped; check } in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let graphs : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Closed states union across subtrees: each work item's closures are
     sound on their own (a popped decision's subtree is fully explored
     regardless of who explored the siblings), so the union is too. *)
  let closed : (Scheduler.prune_key, unit) Hashtbl.t = Hashtbl.create 256 in
  let stats = ref zero in
  let bugs = ref [] in
  let first_exec = ref None in
  List.iter
    (fun (r : Explorer.result) ->
      let s = !stats in
      stats :=
        {
          explored = s.explored + r.stats.explored;
          feasible = s.feasible + r.stats.feasible;
          pruned_loop_bound = s.pruned_loop_bound + r.stats.pruned_loop_bound;
          pruned_max_actions = s.pruned_max_actions + r.stats.pruned_max_actions;
          pruned_sleep_set = s.pruned_sleep_set + r.stats.pruned_sleep_set;
          pruned_equiv = s.pruned_equiv + r.stats.pruned_equiv;
          pruned_retry = s.pruned_retry + r.stats.pruned_retry;
          distinct_graphs = 0 (* set from the union below *);
          buggy = s.buggy + r.stats.buggy;
          truncated = s.truncated || r.stats.truncated;
          time = s.time;
          minor_words = s.minor_words +. r.stats.minor_words;
          snapshots = s.snapshots + r.stats.snapshots;
          restores = s.restores + r.stats.restores;
          commits = s.commits + r.stats.commits;
          fiber_switches = s.fiber_switches + r.stats.fiber_switches;
          inline_ops = s.inline_ops + r.stats.inline_ops;
          rf_queries = s.rf_queries + r.stats.rf_queries;
          rf_fast = 0;
          rf_rejected = s.rf_rejected + r.stats.rf_rejected;
          check = s.check;
        };
      List.iter (fun fp -> Hashtbl.replace graphs fp ()) r.graphs;
      List.iter (fun k -> Hashtbl.replace closed k ()) r.closed;
      List.iter
        (fun b ->
          let key = Bug.key b in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            bugs := b :: !bugs
          end)
        r.bugs;
      if Option.is_none !first_exec then first_exec := r.first_buggy_exec)
    results;
  let graph_list =
    List.sort_uniq Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) graphs [])
  in
  {
    stats =
      {
        !stats with
        distinct_graphs = Hashtbl.length graphs;
        time = Monotonic.now () -. t0;
      };
    bugs = List.rev !bugs;
    first_buggy_exec = !first_exec;
    graphs = graph_list;
    closed = Hashtbl.fold (fun k () acc -> k :: acc) closed [];
  }

(* What every worker polls after each counted run: the global execution
   cap (a shared counter) and the caller's [stop]. Either one sets
   [halted], which ends every other worker's search at its next poll. *)
let make_stop ~halted ~cap ~stop =
  let counter = Atomic.make 0 in
  fun () ->
    let capped = match cap with Some m -> Atomic.fetch_and_add counter 1 + 1 >= m | None -> false in
    let stopped = match stop with Some f -> f () | None -> false in
    if capped || stopped then begin
      Atomic.set halted true;
      true
    end
    else Atomic.get halted

(* ------------------------------------------------------------------ *)
(* Work stealing                                                       *)

(* A unit of work: a frozen decision prefix pinning one subtree, plus its
   canonical [key] — the chosen-index path of the prefix, which is the
   subtree's DFS position. Items are created by donation ([on_split] in
   the subtree explorer): a busy domain carves off the shallowest
   unexplored sibling branches of its current path whenever some domain
   is starving. Because the donor freezes the donated level, everything
   it subsequently explores or donates is DFS-before the donated
   subtree; item intervals therefore partition the DFS order, and
   lexicographic key order *is* DFS order — merging results sorted by
   key reproduces the serial explorer's bug order exactly. *)
type work_item = { key : int list; prefix : Scheduler.decision array; frozen : int }

let explore_steal ~config ?on_feasible ?check ?stop ?warm ~jobs main =
  let t0 = Monotonic.now () in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let queue : work_item Queue.t = Queue.create () in
  let active = ref 0 in
  let finished = ref false in
  let results : (int list * Explorer.result) list ref = ref [] in
  (* Domains blocked waiting for work. Read lock-free by busy donors:
     [want_split] must be cheap enough to poll after every backtrack. *)
  let waiting = Atomic.make 0 in
  let halted = Atomic.make false in
  let stop = make_stop ~halted ~cap:config.Explorer.max_executions ~stop in
  let subtree_config = { config with Explorer.max_executions = None } in
  Queue.push { key = []; prefix = [||]; frozen = 0 } queue;
  let want_split () = Atomic.get waiting > 0 && not (Atomic.get halted) in
  let give ~key ~prefix ~frozen =
    Mutex.lock mutex;
    Queue.push { key; prefix; frozen } queue;
    Condition.signal cond;
    Mutex.unlock mutex
  in
  let take () =
    Mutex.lock mutex;
    let rec wait () =
      if !finished then begin
        Mutex.unlock mutex;
        None
      end
      else
        match Queue.take_opt queue with
        | Some item ->
          incr active;
          Mutex.unlock mutex;
          Some item
        | None ->
          if !active = 0 then begin
            finished := true;
            Condition.broadcast cond;
            Mutex.unlock mutex;
            None
          end
          else begin
            Atomic.incr waiting;
            Condition.wait cond mutex;
            Atomic.decr waiting;
            wait ()
          end
    in
    wait ()
  in
  let finish key r =
    Mutex.lock mutex;
    (match r with Some r -> results := (key, r) :: !results | None -> ());
    decr active;
    if !active = 0 && Queue.is_empty queue then begin
      finished := true;
      Condition.broadcast cond
    end;
    Mutex.unlock mutex
  in
  let worker () =
    let rec loop () =
      match take () with
      | None -> ()
      | Some item ->
        (* After a global halt, finish remaining items without exploring
           them — the merged result is truncated either way. *)
        if Atomic.get halted then finish item.key None
        else begin
          let trace = Vec.create () in
          Array.iter (fun d -> Vec.push trace (Explorer.copy_decision d)) item.prefix;
          let r =
            Explorer.explore_subtree ~config:subtree_config ?on_feasible ~stop ?warm ~want_split
              ~on_split:give ~trace ~frozen:item.frozen main
          in
          finish item.key (Some r)
        end;
        loop ()
    in
    loop ()
  in
  let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let final_check = match check with Some f -> f () | None -> Explorer.no_check_counters in
  let ordered =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !results |> List.map snd
  in
  merge ~t0 ~stopped:(Atomic.get halted) ~check:final_check ordered

let explore ?(config = Explorer.default_config) ?on_feasible ?check ?stop ?warm ?(jobs = 1) main =
  if jobs <= 1 then Explorer.explore ~config ?on_feasible ?check ?stop ?warm main
  else explore_steal ~config ?on_feasible ?check ?stop ?warm ~jobs main

(* ------------------------------------------------------------------ *)
(* Resident pool                                                       *)

(* A long-lived domain pool for callers that process many independent
   explorations over time (the serve daemon shards client jobs across
   one of these instead of spawning domains per request). Tasks are
   plain thunks run FIFO; a task that raises is contained — the
   exception is reported on stderr and the worker moves on, so one bad
   job can never wedge the pool. *)

type pool = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  p_queue : (unit -> unit) Queue.t;
  mutable p_stop : bool;
  mutable p_domains : unit Domain.t array;
  p_size : int;
}

let pool_worker p () =
  let rec loop () =
    Mutex.lock p.p_mutex;
    let rec next () =
      match Queue.take_opt p.p_queue with
      | Some task ->
        Mutex.unlock p.p_mutex;
        Some task
      | None ->
        if p.p_stop then begin
          Mutex.unlock p.p_mutex;
          None
        end
        else begin
          Condition.wait p.p_cond p.p_mutex;
          next ()
        end
    in
    match next () with
    | None -> ()
    | Some task ->
      (try task ()
       with exn ->
         Printf.eprintf "Mc.Parallel.pool: task raised %s\n%!" (Printexc.to_string exn));
      loop ()
  in
  loop ()

let pool_create ~jobs =
  let jobs = max 1 jobs in
  let p =
    {
      p_mutex = Mutex.create ();
      p_cond = Condition.create ();
      p_queue = Queue.create ();
      p_stop = false;
      p_domains = [||];
      p_size = jobs;
    }
  in
  (* Workers only touch the mutex/cond/queue fields, all fully
     initialized above — filling [p_domains] afterwards is safe. *)
  p.p_domains <- Array.init jobs (fun _ -> Domain.spawn (fun () -> pool_worker p ()));
  p

let pool_size p = p.p_size

let pool_submit p task =
  Mutex.lock p.p_mutex;
  if p.p_stop then begin
    Mutex.unlock p.p_mutex;
    invalid_arg "Mc.Parallel.pool_submit: pool is shut down"
  end
  else begin
    Queue.push task p.p_queue;
    Condition.signal p.p_cond;
    Mutex.unlock p.p_mutex
  end

let pool_shutdown p =
  Mutex.lock p.p_mutex;
  p.p_stop <- true;
  Condition.broadcast p.p_cond;
  Mutex.unlock p.p_mutex;
  Array.iter Domain.join p.p_domains
