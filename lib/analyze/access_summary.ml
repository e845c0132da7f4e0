module Mo = C11.Memory_order
module Act = C11.Action
module Exec = C11.Execution
module Clock = C11.Clock
module Ords = Structures.Ords
module B = Structures.Benchmark

type config = { max_executions : int option; time_budget : float option; jobs : int }

let default_config = { max_executions = Some 200_000; time_budget = None; jobs = 1 }

type site_summary = {
  site : Ords.site;
  occurrences : int;
  executions : int;
  release_writes : int;
  sw_edges : int;
  sw_carried : int;
  acquire_reads : int;
  acquire_gained : int;
  sc_ops : int;
  sc_constrained : int;
  cross_thread_reads : int;
  relaxed_published : int;
  access_tids : int;
  single_thread : bool;
  sample_exec : string option;
  publish_evidence : (string * (int * int)) option;
}

type method_summary = { method_name : string; calls : int; calls_with_op : int }
type rule_summary = { rule_first : string; rule_second : string; exercised : int }

(* ---- behaviour fingerprints (memory-order-insensitive) ---- *)

type behaviour_set = (int64, unit) Hashtbl.t

let behaviour_cardinal = Hashtbl.length

let behaviour_diff ~baseline ~candidate =
  let missing_from tbl other =
    Hashtbl.fold (fun k () acc -> if Hashtbl.mem other k then acc else acc + 1) tbl 0
  in
  (missing_from candidate baseline, missing_from baseline candidate)

let kind_tag : Act.kind -> int = function
  | Load -> 0
  | Store -> 1
  | Rmw -> 2
  | Na_load -> 3
  | Na_store -> 4
  | Fence -> 5
  | Create _ -> 6
  | Start -> 7
  | Join _ -> 8
  | Finish -> 9

let kind_payload : Act.kind -> int = function
  | Create t | Join t -> t
  | Load | Store | Rmw | Na_load | Na_store | Fence | Start | Finish -> 0

(* FNV-1a over the committed actions. Unlike C11.Execution.fingerprint
   it deliberately skips the mo field: weakening one site rewrites the
   order of every action it emits, and the advisor must recognize the
   otherwise-identical execution as the same behaviour. Commit order
   (= mo and the SC order) is still part of the hash via iteration
   order. *)
let prime = 0x100000001B3L
let offset = 0xCBF29CE484222325L
let fnv h v = Int64.mul (Int64.logxor h (Int64.of_int v)) prime
let fnv_opt h = function None -> fnv h (-1) | Some v -> fnv (fnv h 1) v

let behaviour_set_create () : behaviour_set = Hashtbl.create 256

let behaviour_fingerprint exec =
  let h = ref offset in
  for i = 0 to Exec.num_actions exec - 1 do
    let a = Exec.action exec i in
    h := fnv !h a.tid;
    h := fnv !h (kind_tag a.kind);
    h := fnv !h (kind_payload a.kind);
    h := fnv !h a.loc;
    h := fnv_opt !h a.read_value;
    h := fnv_opt !h a.written_value;
    h := fnv_opt !h a.rf
  done;
  !h

let behaviour_add set exec = Hashtbl.replace set (behaviour_fingerprint exec) ()

(* ---- mutable accumulators ---- *)

type site_acc = {
  s : Ords.site;
  mutable a_occurrences : int;
  mutable a_executions : int;
  mutable a_release_writes : int;
  mutable a_sw_edges : int;
  mutable a_sw_carried : int;
  mutable a_acquire_reads : int;
  mutable a_acquire_gained : int;
  mutable a_sc_ops : int;
  mutable a_sc_constrained : int;
  mutable a_cross_thread_reads : int;
  mutable a_relaxed_published : int;
  mutable a_concurrent : bool;
  tids : (int, unit) Hashtbl.t;
  mutable a_sample_exec : string option;
  mutable a_publish_evidence : (string * (int * int)) option;
}

let fresh_acc s =
  {
    s;
    a_occurrences = 0;
    a_executions = 0;
    a_release_writes = 0;
    a_sw_edges = 0;
    a_sw_carried = 0;
    a_acquire_reads = 0;
    a_acquire_gained = 0;
    a_sc_ops = 0;
    a_sc_constrained = 0;
    a_cross_thread_reads = 0;
    a_relaxed_published = 0;
    a_concurrent = false;
    tids = Hashtbl.create 4;
    a_sample_exec = None;
    a_publish_evidence = None;
  }

type method_acc = { mutable m_calls : int; mutable m_with_op : int }
type rule_acc = { r_first : string; r_second : string; mutable r_hits : int }

type t = {
  bench : string;
  sites : site_summary list;
  methods : method_summary list;
  rules : rule_summary list;
  test_behaviours : (string * behaviour_set) list;
  bugs : Mc.Bug.t list;
  races : (string option * string option) list;
  explored : int;
  feasible : int;
  buggy : int;
  truncated : bool;
  time : float;
}

let is_memory_access (a : Act.t) =
  a.loc <> Act.no_loc
  && (Act.is_atomic_read a || Act.is_atomic_write a || Act.is_non_atomic a)

let sc_eligible (a : Act.t) =
  Act.is_seq_cst a && (Act.is_atomic_read a || Act.is_atomic_write a || Act.is_fence a)

(* A "mattering" SC pairing for [a]: a concurrent (hb-unordered,
   other-thread) seq_cst op on the same location — or either a fence —
   with at least one of the two a write or fence, so the SC total order
   actually restricted what either side could do. *)
let sc_constrained_by sc (a : Act.t) =
  List.exists
    (fun (b : Act.t) ->
      b.id <> a.id && b.tid <> a.tid
      && (Act.is_fence a || Act.is_fence b || (a.loc <> Act.no_loc && a.loc = b.loc))
      && (Act.is_atomic_write a || Act.is_fence a || Act.is_atomic_write b || Act.is_fence b)
      && (not (Act.happens_before a b))
      && not (Act.happens_before b a))
    sc

(* Conflicting cross-thread pair left unordered by other
   synchronization: two accesses to the same location from different
   threads, at least one a write, where the earlier (in commit order,
   which hb respects) is not covered by the later one's base clock — its
   clock before its own acquire. The edge an access's own acquire
   creates is the synchronization under review, not other
   synchronization. When a site's locations never exhibit such a pair
   across all feasible executions, its atomicity is carried by other
   synchronization (single_thread in the summary). *)
let has_concurrent_conflict bases accesses =
  let arr = Array.of_list accesses in
  let n = Array.length arr in
  let found = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not !found then begin
        let a : Act.t = arr.(i) and b : Act.t = arr.(j) in
        let earlier, later = if a.id < b.id then (a, b) else (b, a) in
        if
          a.tid <> b.tid
          && (Act.is_write a || Act.is_write b)
          && not (Clock.covers bases.(later.id) ~tid:earlier.tid ~seq:earlier.seq)
        then found := true
      end
    done
  done;
  !found

let collect ?(config = default_config) ?ords (b : B.t) =
  let ords = match ords with Some o -> o | None -> Ords.default b.sites in
  let t0 = Mc.Monotonic.now () in
  let deadline = Option.map (fun s -> t0 +. s) config.time_budget in
  let site_accs : (string, site_acc) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (s : Ords.site) -> Hashtbl.replace site_accs s.name (fresh_acc s)) b.sites;
  let method_accs : (string, method_acc) Hashtbl.t = Hashtbl.create 16 in
  let method_order = ref [] in
  let add_method name =
    if not (Hashtbl.mem method_accs name) then begin
      Hashtbl.add method_accs name { m_calls = 0; m_with_op = 0 };
      method_order := name :: !method_order
    end
  in
  let rule_accs =
    match b.spec with
    | Cdsspec.Spec.Packed sp ->
      List.iter (fun (name, _) -> add_method name) sp.methods;
      List.map
        (fun (r : Cdsspec.Spec.admissibility_rule) ->
          { r_first = r.first; r_second = r.second; r_hits = 0 })
        sp.admissibility
  in

  (* Fold one feasible execution into the fact tables. Called under the
     collector mutex (Parallel runs on_feasible concurrently). *)
  let process exec annots =
    let n = Exec.num_actions exec in
    let exec_pp = lazy (Fmt.str "%a" Exec.pp exec) in
    let bases = Array.make (max n 1) Clock.empty in
    let prev : (int, Clock.t) Hashtbl.t = Hashtbl.create 8 in
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let loc_accesses : (int, Act.t list ref) Hashtbl.t = Hashtbl.create 32 in
    let loc_sites : (int, string list ref) Hashtbl.t = Hashtbl.create 32 in
    let sc = ref [] in
    (* pass 1: program-order base clocks, occurrence-side facts *)
    for id = 0 to n - 1 do
      let a = Exec.action exec id in
      let base =
        match Hashtbl.find_opt prev a.tid with
        | Some c -> Clock.set c a.tid a.seq
        | None -> Clock.set Clock.empty a.tid a.seq
      in
      bases.(id) <- base;
      Hashtbl.replace prev a.tid a.clock;
      if sc_eligible a then sc := a :: !sc;
      if is_memory_access a then begin
        let l =
          match Hashtbl.find_opt loc_accesses a.loc with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add loc_accesses a.loc l;
            l
        in
        l := a :: !l
      end;
      match a.site with
      | Some name -> (
        match Hashtbl.find_opt site_accs name with
        | None -> ()
        | Some acc ->
          acc.a_occurrences <- acc.a_occurrences + 1;
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            acc.a_executions <- acc.a_executions + 1
          end;
          if acc.a_sample_exec = None then acc.a_sample_exec <- Some (Lazy.force exec_pp);
          if a.loc <> Act.no_loc then begin
            let ls =
              match Hashtbl.find_opt loc_sites a.loc with
              | Some ls -> ls
              | None ->
                let ls = ref [] in
                Hashtbl.add loc_sites a.loc ls;
                ls
            in
            if not (List.mem name !ls) then ls := name :: !ls
          end;
          if Act.is_atomic_write a && Mo.is_release a.mo then
            acc.a_release_writes <- acc.a_release_writes + 1;
          if Act.is_atomic_read a && Mo.is_acquire a.mo then begin
            acc.a_acquire_reads <- acc.a_acquire_reads + 1;
            if not (Clock.leq a.clock base) then acc.a_acquire_gained <- acc.a_acquire_gained + 1
          end)
      | None -> ()
    done;
    (* pass 2: reader-attributed facts (publication, sw), SC pairings *)
    for id = 0 to n - 1 do
      let a = Exec.action exec id in
      (if Act.is_atomic_read a then
         match a.rf with
         | Some wid -> (
           let w = Exec.action exec wid in
           match w.site with
           | Some ws -> (
             match Hashtbl.find_opt site_accs ws with
             | None -> ()
             | Some accw ->
               if a.tid <> w.tid && Act.is_atomic_write w then begin
                 accw.a_cross_thread_reads <- accw.a_cross_thread_reads + 1;
                 if not (Mo.is_release w.mo) then begin
                   accw.a_relaxed_published <- accw.a_relaxed_published + 1;
                   if accw.a_publish_evidence = None then
                     accw.a_publish_evidence <- Some (Fmt.str "%a" Exec.pp exec, (w.id, a.id))
                 end
               end;
               if Mo.is_acquire a.mo then
                 match w.release_clock with
                 | Some rc ->
                   accw.a_sw_edges <- accw.a_sw_edges + 1;
                   if not (Clock.leq rc bases.(id)) then accw.a_sw_carried <- accw.a_sw_carried + 1
                 | None -> ())
           | None -> ())
         | None -> ());
      match a.site with
      | Some name when sc_eligible a -> (
        match Hashtbl.find_opt site_accs name with
        | None -> ()
        | Some acc ->
          acc.a_sc_ops <- acc.a_sc_ops + 1;
          if sc_constrained_by !sc a then acc.a_sc_constrained <- acc.a_sc_constrained + 1)
      | _ -> ()
    done;
    (* location-level concurrency, attributed to the sites on the loc *)
    Hashtbl.iter
      (fun loc sites ->
        match Hashtbl.find_opt loc_accesses loc with
        | None -> ()
        | Some accesses ->
          let conflict = lazy (has_concurrent_conflict bases !accesses) in
          List.iter
            (fun name ->
              match Hashtbl.find_opt site_accs name with
              | None -> ()
              | Some acc ->
                List.iter (fun (a : Act.t) -> Hashtbl.replace acc.tids a.tid ()) !accesses;
                if (not acc.a_concurrent) && Lazy.force conflict then acc.a_concurrent <- true)
            !sites)
      loc_sites;
    (* method-call level: calls, ordering points, admissibility firing *)
    let calls = Cdsspec.History.calls_of_annots annots in
    List.iter
      (fun (c : Cdsspec.Call.t) ->
        add_method c.name;
        let m = Hashtbl.find method_accs c.name in
        m.m_calls <- m.m_calls + 1;
        if c.ordering_points <> [] then m.m_with_op <- m.m_with_op + 1)
      calls;
    if rule_accs <> [] && calls <> [] then begin
      let rel = Cdsspec.History.ordering_relation exec calls in
      let pairs = Cdsspec.History.unordered_pairs rel calls in
      List.iter
        (fun ra ->
          let matches (x : Cdsspec.Call.t) (y : Cdsspec.Call.t) =
            (x.name = ra.r_first && y.name = ra.r_second)
            || (x.name = ra.r_second && y.name = ra.r_first)
          in
          if List.exists (fun (x, y) -> matches x y) pairs then ra.r_hits <- ra.r_hits + 1)
        rule_accs
    end
  in

  let mu = Mutex.create () in
  let explored = ref 0 and feasible = ref 0 and buggy = ref 0 in
  let truncated = ref false in
  let bug_keys : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let bugs_rev = ref [] in
  let behaviours_rev = ref [] in
  List.iter
    (fun (t : B.test) ->
      let expired =
        match deadline with Some d -> Mc.Monotonic.now () > d | None -> false
      in
      if expired then truncated := true
      else begin
        let bset : behaviour_set = Hashtbl.create 256 in
        let on_feasible exec annots =
          let protect f = Mutex.protect mu f in
          protect (fun () ->
              process exec annots;
              Hashtbl.replace bset (behaviour_fingerprint exec) ());
          Cdsspec.Checker.hook b.spec exec annots
        in
        let econfig =
          {
            Mc.Explorer.default_config with
            scheduler = b.scheduler;
            max_executions = config.max_executions;
            (* Fact counts are per-execution occurrence counts: pruning
               would make them depend on the subtree-cut pattern instead
               of the interleaving set the summary documents. *)
            prune = false;
          }
        in
        let r =
          if config.jobs > 1 then
            Mc.Parallel.explore ~config:econfig ~on_feasible ~jobs:config.jobs (t.program ords)
          else begin
            let stop = Option.map (fun d () -> Mc.Monotonic.now () > d) deadline in
            Mc.Explorer.explore_subtree ?stop ~config:econfig ~on_feasible
              ~trace:(C11.Vec.create ()) ~frozen:0 (t.program ords)
          end
        in
        explored := !explored + r.stats.explored;
        feasible := !feasible + r.stats.feasible;
        buggy := !buggy + r.stats.buggy;
        if r.stats.truncated then truncated := true;
        List.iter
          (fun bug ->
            let k = Mc.Bug.key bug in
            if not (Hashtbl.mem bug_keys k) then begin
              Hashtbl.add bug_keys k ();
              bugs_rev := bug :: !bugs_rev
            end)
          r.bugs;
        behaviours_rev := (t.test_name, bset) :: !behaviours_rev
      end)
    b.tests;
  let bugs = List.rev !bugs_rev in
  let races =
    List.filter_map
      (function
        | Mc.Bug.Data_race { first; second } -> Some (first.Act.site, second.Act.site)
        | _ -> None)
      bugs
  in
  let finalize (acc : site_acc) =
    {
      site = acc.s;
      occurrences = acc.a_occurrences;
      executions = acc.a_executions;
      release_writes = acc.a_release_writes;
      sw_edges = acc.a_sw_edges;
      sw_carried = acc.a_sw_carried;
      acquire_reads = acc.a_acquire_reads;
      acquire_gained = acc.a_acquire_gained;
      sc_ops = acc.a_sc_ops;
      sc_constrained = acc.a_sc_constrained;
      cross_thread_reads = acc.a_cross_thread_reads;
      relaxed_published = acc.a_relaxed_published;
      access_tids = Hashtbl.length acc.tids;
      single_thread = acc.a_occurrences > 0 && not acc.a_concurrent;
      sample_exec = acc.a_sample_exec;
      publish_evidence = acc.a_publish_evidence;
    }
  in
  {
    bench = b.name;
    sites = List.map (fun (s : Ords.site) -> finalize (Hashtbl.find site_accs s.name)) b.sites;
    methods =
      List.rev_map
        (fun name ->
          let m = Hashtbl.find method_accs name in
          { method_name = name; calls = m.m_calls; calls_with_op = m.m_with_op })
        !method_order;
    rules =
      List.map
        (fun ra -> { rule_first = ra.r_first; rule_second = ra.r_second; exercised = ra.r_hits })
        rule_accs;
    test_behaviours = List.rev !behaviours_rev;
    bugs;
    races;
    explored = !explored;
    feasible = !feasible;
    buggy = !buggy;
    truncated = !truncated;
    time = Mc.Monotonic.now () -. t0;
  }
