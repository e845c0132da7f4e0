module Execution = C11.Execution
module Vec = C11.Vec

(* The canonical state key of a (fresh, scheduling) decision point: the
   execution-graph fingerprint plus the sleeping-thread set. Two decision
   points with equal keys have byte-identical subtrees — the graph
   determines every thread's continuation (thread code is deterministic
   in the values its operations returned, all of which the fingerprint
   digests), and the sleep set determines which schedules the DFS will
   bother exploring from here. The explorer prunes a fresh decision
   point whose key matches an already fully-explored one. *)
type prune_key = { fp : int64; sleeping : int list; nacts : int }

type sched_decision = {
  mutable sched_chosen : int;
  candidates : int array;
  state : prune_key option;  (* key at creation; None under replay-only construction *)
}

type choice_decision = { mutable choice_chosen : int; num : int }

type decision =
  | Sched of sched_decision
  | Choice of choice_decision

let decision_arity = function
  | Sched { candidates; _ } -> Array.length candidates
  | Choice { num; _ } -> num

let decision_chosen = function
  | Sched { sched_chosen; _ } -> sched_chosen
  | Choice { choice_chosen; _ } -> choice_chosen

type annot = {
  tid : int;
  annotation : Program.annotation;
  op_action : int option;
  index : int;
}

type config = {
  loop_bound : int;
  max_actions : int;
  sleep_sets : bool;
  inline_visible : bool;
}

let default_config =
  {
    loop_bound = 8;
    max_actions = 4000;
    sleep_sets = true;
    inline_visible = true;
  }

type outcome =
  | Complete
  | Pruned_loop_bound of { tid : int; loc : int }
  | Pruned_max_actions
  | Pruned_sleep_set
  | Pruned_equiv

type run_result = {
  exec : Execution.t;
  annots : annot list;
  bugs : Bug.t list;
  outcome : outcome;
  switches : int;
  inline_ops : int;
}

exception Prune of outcome


type status =
  | Not_started of (unit -> unit)
  | Paused of Program.op * (int, unit) Effect.Deep.continuation
  | Finished

(* A paused thread the scheduler discards without resuming (a restore
   overwrites it, a run or a search ends with it suspended) must have its
   fiber stack freed: OCaml 5.1 never reclaims the stack of a dropped
   continuation. [take_stack] is the runtime primitive behind
   [Effect.Deep.continue]: it detaches the stack, leaving the
   continuation marked as resumed; [free_stack] returns it, with any
   parent stacks, to the runtime. No code runs on the fiber. *)
type fiber_stack

external take_stack : ('a, 'b) Effect.Deep.continuation -> fiber_stack
  = "caml_continuation_use_noexc"
[@@noalloc]

external free_stack : fiber_stack -> unit = "cdsspec_free_stack" [@@noalloc]

let drop_fiber = function
  | Paused (_, k) -> free_stack (take_stack k)
  | Not_started _ | Finished -> ()

(* What a committed step touched, for sleep-set wake-ups. *)
type footprint =
  | Mem of { loc : int; write : bool }
  | Global  (* fences: they read/extend the SC order *)
  | Pure

(* Per-(tid, site|loc, kind) commit counters for the loop bound. Counter
   cells are [int ref]s found through an interned-key table (no string
   formatting on the hot path), and every bump is journalled so a
   session restore can rewind the counts to a snapshot by decrementing
   back down the journal. Cells are stable across table growth, which is
   what keeps journal entries valid. *)
type counters = {
  by_site : (string, int ref array ref) Hashtbl.t;  (* site -> cells indexed tid*8+kind *)
  by_loc : (int, int ref array ref) Hashtbl.t;  (* loc -> cells indexed tid*8+kind *)
  cj : int ref Vec.t;  (* journal: one entry per bump, newest last *)
}

let counters_create () = { by_site = Hashtbl.create 64; by_loc = Hashtbl.create 16; cj = Vec.create () }

let counter_cell table key idx =
  let cells =
    match Hashtbl.find_opt table key with
    | Some c -> c
    | None ->
      let c = ref [||] in
      Hashtbl.add table key c;
      c
  in
  let n = Array.length !cells in
  if idx >= n then begin
    let grown = Array.init (idx + 8) (fun i -> if i < n then !cells.(i) else ref 0) in
    cells := grown
  end;
  !cells.(idx)

(* Scheduler scalars + arena watermark captured at a decision's step (or,
   for decisions recorded by hook-inlined operations, just before the
   inlined operation commits — see [capture_inline]). Defined here, ahead
   of the session machinery that stores them, because the dispatch hook
   captures mid-step snapshots itself. *)
type snapshot = {
  s_mark : Execution.mark;
  s_nthreads : int;
  s_stat : int array;  (* 0 = not started, 1 = paused, 2 = finished *)
  s_vcount : int array;  (* values consumed per thread *)
  s_sleep : int;  (* sleep mask at the step's start *)
  s_bugs : Bug.t list;
  s_nannots : int;
  s_last_atomic : int option array;
  s_opc : int;  (* counter-journal length *)
}

type state = {
  config : config;
  exec : Execution.t;
  mutable threads : status array;
  mutable nthreads : int;
  trace : decision Vec.t;
  pick : (decision -> int) option;  (* initial choice at *fresh* decision points *)
  prune : (prune_key -> bool) option;  (* equivalence pruning at fresh sched points *)
  mutable cursor : int;
  annots : annot Vec.t;
  mutable bugs : Bug.t list;  (* reverse commit order *)
  mutable last_atomic : int option array;
  counters : counters;
  mutable values : int Vec.t array;  (* per-thread log of the values ops returned *)
  mutable step_footprints : footprint list;  (* footprints of the current step *)
  mutable replaying : bool;  (* inside [replay_threads]: feed logged values, no commits *)
  mutable cur_tid : int;  (* thread whose fiber the scheduler is currently driving *)
  mutable hook : Program.op -> int option;  (* direct-dispatch hook, closed over this state *)
  mutable n_switches : int;  (* fiber suspensions: operations that performed an effect *)
  mutable n_inline : int;  (* operations committed inside the hook, no effect round-trip *)
  (* Session plumbing for mid-step snapshots: when the hook inlines a
     visible operation that records decisions, it captures and files the
     snapshot itself, so a later backtrack restores to the operation
     rather than to its (possibly much earlier) enclosing step. *)
  mutable s_snaps : snapshot Vec.t option;  (* the session's snapshot store *)
  mutable step_snap : snapshot option;  (* current step's start snapshot *)
  mutable step_sleep0 : int;  (* sleep mask at the current step's start *)
  mutable hook_c0 : int;  (* first hook-snapshotted decision index this step *)
  mutable n_hook_snaps : int;
}

let get_status st tid = st.threads.(tid)

let set_status st tid s = st.threads.(tid) <- s

let add_thread st status =
  let tid = st.nthreads in
  if tid >= Sys.int_size - 2 then invalid_arg "add_thread: too many threads for bitmask sleep sets";
  if tid >= Array.length st.threads then begin
    let threads = Array.make (2 * (tid + 1)) Finished in
    Array.blit st.threads 0 threads 0 st.nthreads;
    st.threads <- threads;
    let last = Array.make (2 * (tid + 1)) None in
    Array.blit st.last_atomic 0 last 0 st.nthreads;
    st.last_atomic <- last
  end;
  if tid >= Array.length st.values then begin
    let n = Array.length st.values in
    let values = Array.init (2 * (tid + 1)) (fun i -> if i < n then st.values.(i) else Vec.create ()) in
    st.values <- values
  end;
  st.threads.(tid) <- status;
  st.nthreads <- tid + 1;
  tid

let record_problems st problems =
  List.iter
    (fun p ->
      let bug =
        match p with
        | Execution.Data_race { first; second } -> Bug.Data_race { first; second }
        | Execution.Uninitialized_load a -> Bug.Uninitialized_load a
      in
      st.bugs <- bug :: st.bugs)
    problems

(* The initial index of a fresh decision point: 0 for the DFS explorer,
   or whatever the [pick] hook samples (the fuzzer's biased PRNG).
   Out-of-range picks are clamped to 0 so a replayed index list shrunk
   by trace minimization can never crash the run. *)
let initial_choice st d =
  match st.pick with
  | None -> 0
  | Some f ->
    let i = f d in
    if i < 0 || i >= decision_arity d then 0 else i

(* Decision points: consume the replayed prefix, then extend with the
   default choice. Trivial (single-alternative) points are not recorded. *)
let choose st num =
  if num <= 1 then 0
  else if st.cursor < Vec.length st.trace then begin
    match Vec.get st.trace st.cursor with
    | Choice d ->
      (* replay must be deterministic: same prefix, same alternatives *)
      assert (d.num = num);
      st.cursor <- st.cursor + 1;
      d.choice_chosen
    | Sched _ -> assert false
  end
  else begin
    let d = { choice_chosen = 0; num } in
    d.choice_chosen <- initial_choice st (Choice d);
    Vec.push st.trace (Choice d);
    st.cursor <- st.cursor + 1;
    d.choice_chosen
  end

(* Thread sets on the scheduling hot path (sleep sets, available
   candidates) are int bitmasks over tids — [add_thread] bounds tids to
   the word size. Bits ascend with tids, so iterating bits in order
   reproduces the sorted lists the decision records and prune keys
   expose. *)
let mask_to_list nthreads m =
  let out = ref [] in
  for tid = nthreads - 1 downto 0 do
    if m land (1 lsl tid) <> 0 then out := tid :: !out
  done;
  !out

(* Scheduling decision over the available-candidate mask [avail] (with
   [nav] >= 2 set bits; single-candidate steps never reach here); returns
   (chosen tid, mask of already-explored siblings to put to sleep).
   [sleep] is the current sleep mask — together with the graph
   fingerprint it keys the state for equivalence pruning at *fresh*
   decision points. *)
let choose_sched st ~sleep ~avail ~nav =
  let d =
    if st.cursor < Vec.length st.trace then begin
      match Vec.get st.trace st.cursor with
      | Sched d ->
        assert (Array.length d.candidates = nav);
        d
      | Choice _ -> assert false
    end
    else begin
      let state =
        match st.prune with
        | None -> None
        | Some seen ->
          let key =
            {
              fp = Execution.fingerprint st.exec;
              sleeping = mask_to_list st.nthreads sleep;
              nacts = Execution.num_actions st.exec;
            }
          in
          if seen key then raise (Prune Pruned_equiv);
          Some key
      in
      let candidates = Array.make nav 0 in
      let i = ref 0 in
      for tid = 0 to st.nthreads - 1 do
        if avail land (1 lsl tid) <> 0 then begin
          candidates.(!i) <- tid;
          incr i
        end
      done;
      let d = { sched_chosen = 0; candidates; state } in
      d.sched_chosen <- initial_choice st (Sched d);
      Vec.push st.trace (Sched d);
      d
    end
  in
  st.cursor <- st.cursor + 1;
  (* Earlier siblings are a sleep-set contribution only under DFS, where
     [sched_chosen > 0] means they were already explored. A sampled
     index says nothing about its siblings, so fuzz runs contribute
     nothing (they disable sleep sets anyway). *)
  let slept =
    if st.pick <> None then 0
    else begin
      let m = ref 0 in
      for i = 0 to d.sched_chosen - 1 do
        m := !m lor (1 lsl d.candidates.(i))
      done;
      !m
    end
  in
  (d.candidates.(d.sched_chosen), slept)

let kind_tag : Program.op -> int = function
  | Load _ -> 0
  | Store _ -> 1
  | Cas _ -> 2
  | Fetch_add _ -> 3
  | Exchange _ -> 4
  | Fence _ -> 5
  | _ -> 6

(* Bound commits per static operation: keyed by the site label when the
   program supplies one (one counter per source-level operation), falling
   back to (location, op-kind). This is what makes spin loops finite. *)
let op_site : Program.op -> string option = function
  | Load { site; _ }
  | Store { site; _ }
  | Cas { site; _ }
  | Fetch_add { site; _ }
  | Exchange { site; _ }
  | Na_load { site; _ }
  | Na_store { site; _ } ->
    site
  | Fence _ | Alloc _ | Spawn _ | Join _ | Annotate _ | Check _ -> None

let bump_op_count st tid loc op =
  let idx = (tid * 8) + kind_tag op in
  let cell =
    match op_site op with
    | Some site -> counter_cell st.counters.by_site site idx
    | None -> counter_cell st.counters.by_loc loc idx
  in
  incr cell;
  Vec.push st.counters.cj cell;
  if !cell > st.config.loop_bound then raise (Prune (Pruned_loop_bound { tid; loc }));
  if Execution.num_actions st.exec > st.config.max_actions then raise (Prune Pruned_max_actions)

let note_atomic st tid (a : C11.Action.t) = st.last_atomic.(tid) <- Some a.id

let add_footprint st f = st.step_footprints <- f :: st.step_footprints

(* The footprint a *pending* operation will have, for wake-up tests.
   CAS counts as a write (it may become one). *)
let op_footprint : Program.op -> footprint = function
  | Load { loc; _ } | Na_load { loc; _ } -> Mem { loc; write = false }
  | Store { loc; _ } | Cas { loc; _ } | Fetch_add { loc; _ } | Exchange { loc; _ } | Na_store { loc; _ }
    ->
    Mem { loc; write = true }
  | Fence _ -> Global
  | Alloc _ | Spawn _ | Join _ | Annotate _ | Check _ -> Pure

(* Same-location operations are dependent when at least one writes: two
   writes because modification order is the commit order, and read/write
   pairs because committing the write first enables a new reads-from
   option for the read — a sleeping reader MUST be woken by a write or
   the execution in which it reads the new value is lost. Only read/read
   pairs commute. *)
let dependent f1 f2 =
  match f1, f2 with
  | Pure, _ | _, Pure -> false
  | Global, _ | _, Global -> true
  | Mem a, Mem b -> a.loc = b.loc && (a.write || b.write)

(* Execute a visible operation for [tid] and return the value to resume
   the thread with. *)
let exec_visible st tid (op : Program.op) =
  add_footprint st (op_footprint op);
  (match op with
  | Load { loc; _ } | Store { loc; _ } | Cas { loc; _ } | Fetch_add { loc; _ } | Exchange { loc; _ } ->
    bump_op_count st tid loc op
  (* fences are not bounded: a loop always contains a bounded load/RMW,
     and straight-line code may legitimately fence often *)
  | Fence _ | Join _ | Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _ -> ());
  match op with
  | Program.Load { mo; loc; site } ->
    let n = Execution.read_window st.exec ~tid ~mo ~loc in
    let rf = if n = 0 then None else Some (Execution.read_candidate st.exec ~loc (choose st n)) in
    let a, problems = Execution.commit_load st.exec ~tid ~mo ~loc ~rf ?site () in
    record_problems st problems;
    note_atomic st tid a;
    (match a.read_value with Some v -> v | None -> 0)
  | Store { mo; loc; value; site } ->
    let a, problems = Execution.commit_store st.exec ~tid ~mo ~loc ~value ?site () in
    record_problems st problems;
    note_atomic st tid a;
    0
  | Cas { mo; fail_mo; loc; expected; desired; site } ->
    let n = Execution.read_window st.exec ~tid ~mo:fail_mo ~loc in
    if n = 0 then begin
      (* CAS on an uninitialized location: like an uninitialized load *)
      let a, problems = Execution.commit_load st.exec ~tid ~mo:fail_mo ~loc ~rf:None ?site () in
      record_problems st problems;
      note_atomic st tid a;
      0
    end
    else begin
      (* Options, in the order the list-based implementation enumerated
         them: success (iff the mo-maximal write matches [expected]),
         then each non-matching candidate newest-first as a failure
         read. Scanned over the window instead of materialized. *)
      let matches (w : C11.Action.t) =
        match w.written_value with Some v -> v = expected | None -> false
      in
      let can_succeed = matches (Execution.read_candidate st.exec ~loc 0) in
      let nfail = ref 0 in
      for i = 0 to n - 1 do
        if not (matches (Execution.read_candidate st.exec ~loc i)) then incr nfail
      done;
      let k = choose st ((if can_succeed then 1 else 0) + !nfail) in
      if can_succeed && k = 0 then begin
        let a, problems = Execution.commit_rmw st.exec ~tid ~mo ~loc ~value:desired ?site () in
        record_problems st problems;
        note_atomic st tid a;
        (match a.read_value with Some v -> v | None -> 0)
      end
      else begin
        let fk = if can_succeed then k - 1 else k in
        let rec nth_fail i seen =
          let w = Execution.read_candidate st.exec ~loc i in
          if matches w then nth_fail (i + 1) seen
          else if seen = fk then w
          else nth_fail (i + 1) (seen + 1)
        in
        let w = nth_fail 0 0 in
        let a, problems = Execution.commit_load st.exec ~tid ~mo:fail_mo ~loc ~rf:(Some w) ?site () in
        record_problems st problems;
        note_atomic st tid a;
        (match a.read_value with Some v -> v | None -> 0)
      end
    end
  | Fetch_add { mo; loc; delta; site } ->
    (match Execution.rmw_candidate st.exec ~loc with
    | None ->
      let a, problems = Execution.commit_load st.exec ~tid ~mo ~loc ~rf:None ?site () in
      record_problems st problems;
      note_atomic st tid a;
      0
    | Some newest ->
      let old = match newest.written_value with Some v -> v | None -> 0 in
      let a, problems = Execution.commit_rmw st.exec ~tid ~mo ~loc ~value:(old + delta) ?site () in
      record_problems st problems;
      note_atomic st tid a;
      old)
  | Exchange { mo; loc; value; site } ->
    (match Execution.rmw_candidate st.exec ~loc with
    | None ->
      let a, problems = Execution.commit_load st.exec ~tid ~mo ~loc ~rf:None ?site () in
      record_problems st problems;
      note_atomic st tid a;
      let a', problems' = Execution.commit_store st.exec ~tid ~mo ~loc ~value ?site () in
      record_problems st problems';
      note_atomic st tid a';
      0
    | Some newest ->
      let old = match newest.written_value with Some v -> v | None -> 0 in
      let a, problems = Execution.commit_rmw st.exec ~tid ~mo ~loc ~value ?site () in
      record_problems st problems;
      note_atomic st tid a;
      old)
  | Fence { mo } ->
    let a = Execution.commit_fence st.exec ~tid ~mo in
    note_atomic st tid a;
    0
  | Join target ->
    ignore (Execution.commit_join st.exec ~tid ~target);
    0
  | Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _ ->
    invalid_arg "exec_visible: invisible op"

(* Invisible operations commit immediately when the thread reaches them:
   they cannot observe other threads' scheduling (see DESIGN.md), so they
   are not decision points — but their memory footprints still count for
   sleep-set wake-ups. *)
let exec_invisible st tid (op : Program.op) =
  if Execution.num_actions st.exec > st.config.max_actions then raise (Prune Pruned_max_actions);
  add_footprint st (op_footprint op);
  match op with
  | Program.Na_load { loc; site } ->
    let a, problems = Execution.commit_na_load st.exec ~tid ~loc ?site () in
    record_problems st problems;
    (match a.read_value with Some v -> v | None -> 0)
  | Na_store { loc; value; site } ->
    let _, problems = Execution.commit_na_store st.exec ~tid ~loc ~value ?site () in
    record_problems st problems;
    0
  | Alloc { count; init } -> Execution.alloc st.exec ~tid ~count ~init
  | Spawn f ->
    let child = add_thread st (Not_started f) in
    ignore (Execution.commit_create st.exec ~tid ~child);
    child
  | Annotate annotation ->
    Vec.push st.annots
      {
        tid;
        annotation;
        op_action = st.last_atomic.(tid);
        index = Execution.num_actions st.exec;
      };
    0
  | Check { cond; message } ->
    if not cond then st.bugs <- Bug.Assertion_failure { tid; message } :: st.bugs;
    0
  | Load _ | Store _ | Cas _ | Fetch_add _ | Exchange _ | Fence _ | Join _ ->
    invalid_arg "exec_invisible: visible op"

let is_invisible : Program.op -> bool = function
  | Program.Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _ -> true
  | Load _ | Store _ | Cas _ | Fetch_add _ | Exchange _ | Fence _ | Join _ -> false

let is_enabled st tid =
  match get_status st tid with
  | Not_started _ -> true
  | Finished -> false
  | Paused (Program.Join target, _) ->
    target < st.nthreads && (match get_status st target with Finished -> true | _ -> false)
  | Paused _ -> true

(* A sleeping thread stays asleep while every footprint of the committed
   step is independent of its pending operation. Threads without a known
   pending operation (not yet started) are conservatively woken. *)
let keep_asleep st footprints tid =
  match get_status st tid with
  | Paused (op, _) ->
    let f = op_footprint op in
    List.for_all (fun g -> not (dependent g f)) footprints
  | Not_started _ | Finished -> false

let capture st sleep =
  {
    s_mark = Execution.mark st.exec;
    s_nthreads = st.nthreads;
    s_stat =
      Array.init st.nthreads (fun i ->
          match st.threads.(i) with Not_started _ -> 0 | Paused _ -> 1 | Finished -> 2);
    s_vcount = Array.init st.nthreads (fun i -> Vec.length st.values.(i));
    s_sleep = sleep;
    s_bugs = st.bugs;
    s_nannots = Vec.length st.annots;
    s_last_atomic = Array.sub st.last_atomic 0 st.nthreads;
    s_opc = Vec.length st.counters.cj;
  }

(* Snapshot for a decision recorded by a hook-inlined visible operation,
   taken just before the operation commits. Restoring it replays the
   running thread up to — and pauses it at — this very operation
   ([s_stat] is patched to "paused"; its value log holds exactly the
   ops before it), so a backtrack re-commits only the operation itself,
   not the whole enclosing step. [s_sleep] is the sleep mask the
   operation's own step would have started with had it not been
   inlined: the enclosing step's start mask filtered by the footprints
   committed so far this step — the same iterated filtering the
   per-step recomputation performs, collapsed into one pass (the
   intermediate statuses cannot change: sleeping threads are paused and
   never stepped while asleep). *)
let capture_inline st tid =
  let sleep =
    let m = st.step_sleep0 in
    if (not st.config.sleep_sets) || m = 0 then 0
    else begin
      let out = ref 0 in
      for u = 0 to st.nthreads - 1 do
        if m land (1 lsl u) <> 0 && keep_asleep st st.step_footprints u then
          out := !out lor (1 lsl u)
      done;
      !out
    end
  in
  let sn = capture st sleep in
  sn.s_stat.(tid) <- 1;
  st.n_hook_snaps <- st.n_hook_snaps + 1;
  sn

(* File snapshot [sn] under every decision index the just-committed
   inlined operation recorded ([c0 ..cursor-1]), backfilling any earlier
   indices of the enclosing step with the step's start snapshot so the
   store stays dense. [hook_c0] tells the step's own [record_snaps] where
   to stop so it never overwrites hook-filed snapshots. *)
let assign_snaps st snaps c0 sn =
  if st.cursor > c0 then begin
    if c0 < st.hook_c0 then st.hook_c0 <- c0;
    (match st.step_snap with
    | Some stepsn ->
      while Vec.length snaps < c0 do
        Vec.push snaps stepsn
      done
    | None ->
      (* capture-skipped step: it recorded no decision of its own, so
         the store is already dense up to [c0] *)
      assert (Vec.length snaps >= c0));
    for i = c0 to st.cursor - 1 do
      if i < Vec.length snaps then Vec.set snaps i sn else Vec.push snaps sn
    done
  end

(* Only loads and CAS can record (reads-from / branch-direction)
   decisions; other visible ops never need a mid-step snapshot. Being
   wrong here costs performance, not soundness: an unsnapshotted
   decision falls back to the enclosing step's snapshot. *)
let may_decide : Program.op -> bool = function
  | Program.Load _ | Cas _ -> true
  | _ -> false

(* First-run direct dispatch of a *visible* operation: sound exactly when
   the scheduling step it elides could not have gone any other way.

   - No thread other than [tid] is enabled: the would-be scheduling
     point has one available candidate, which [run_loop] takes without
     recording a decision ([!nav = 1] short-circuits [choose_sched]), so
     skipping the loop iteration drops no decision and no prune-key
     check (those fire only at non-trivial fresh points).
   - The running thread itself cannot be asleep here: a thread is put to
     sleep only as an unchosen sibling, and a sleeping thread is never
     stepped, so the fiber being live implies [tid] is awake.
   - [op] itself is enabled — a [Join] commits only once its target has
     finished; inlining a blocked [Join] would skip deadlock detection.

   Value-level choices the commit makes (reads-from, CAS direction) are
   NOT elided: [exec_visible] records them in the trace as usual, and the
   enclosing step's snapshot covers them ([record_snaps] walks every
   decision index the step produced). Statuses are restored on session
   rewind, so the gate is deterministic across restore-replays: a prefix
   that inlined an op on the fresh run inlines it again after restore. *)
let can_inline_visible st tid (op : Program.op) =
  (match op with
  | Program.Join target ->
    target < st.nthreads && (match get_status st target with Finished -> true | _ -> false)
  | _ -> true)
  &&
  let rec no_other u =
    u >= st.nthreads || ((u = tid || not (is_enabled st u)) && no_other (u + 1))
  in
  no_other 0

(* The [Program.dispatch] hook: handle an operation inside the running
   fiber, without suspending it, whenever the result does not need a
   scheduling decision. Live runs commit invisible operations directly
   (logging their values as [drain] would) and visible operations too
   when no other thread is enabled (see [can_inline_visible]); replay
   feeds each thread the logged values of *all* its operations, so a
   whole program prefix re-runs without a single effect. [None] — a
   visible operation live at a real scheduling point, or an exhausted
   value log under replay — performs the effect and pauses the fiber at
   its pending operation as before. *)
let make_hook st (op : Program.op) =
  let tid = st.cur_tid in
  if st.replaying then
    (* The replay value feed lives in the dispatcher itself
       ([Program.dispatch]'s [rp_*] tier) and never reaches this hook;
       control only lands here when a replayed thread's feed has drained
       — at the operation it was paused at when the snapshot was taken —
       and [None] performs the effect, parking the fiber there. *)
    None
  else if is_invisible op then begin
    let v = exec_invisible st tid op in
    Vec.push st.values.(tid) v;
    st.n_inline <- st.n_inline + 1;
    Some v
  end
  else if st.config.inline_visible && can_inline_visible st tid op then begin
    match st.s_snaps with
    | Some snaps when may_decide op ->
      (* Session mode: decisions this op records need a restore point at
         the op itself, captured before it commits. *)
      let c0 = st.cursor in
      let sn = capture_inline st tid in
      let v =
        match exec_visible st tid op with
        | v -> v
        | exception e ->
          assign_snaps st snaps c0 sn;
          raise e
      in
      assign_snaps st snaps c0 sn;
      Vec.push st.values.(tid) v;
      st.n_inline <- st.n_inline + 1;
      Some v
    | _ ->
      let v = exec_visible st tid op in
      Vec.push st.values.(tid) v;
      st.n_inline <- st.n_inline + 1;
      Some v
  end
  else None

let handler st tid =
  {
    Effect.Deep.retc =
      (fun () ->
        ignore (Execution.commit_finish st.exec ~tid);
        set_status st tid Finished);
    exnc =
      (fun e ->
        (match e with
        | Prune _ -> raise e
        | _ ->
          st.bugs <-
            Bug.Assertion_failure { tid; message = "uncaught exception: " ^ Printexc.to_string e }
            :: st.bugs;
          ignore (Execution.commit_finish st.exec ~tid);
          set_status st tid Finished));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Program.Do op ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              st.n_switches <- st.n_switches + 1;
              set_status st tid (Paused (op, k)))
        | _ -> None);
  }

(* Run thread [tid] until it pauses at a visible operation or finishes,
   committing any invisible operations it passes through. *)
let rec drain st tid =
  match get_status st tid with
  | Paused (op, k) when is_invisible op ->
    let v = exec_invisible st tid op in
    Vec.push st.values.(tid) v;
    Effect.Deep.continue k v;
    drain st tid
  | Not_started _ | Paused _ | Finished -> ()

let start_thread st tid f =
  ignore (Execution.commit_start st.exec ~tid);
  Effect.Deep.match_with f () (handler st tid);
  drain st tid

(* One scheduling step: start the thread or commit its pending visible
   operation, then run it to its next visible operation. Returns the
   footprints of everything it committed. *)
let step st tid =
  st.cur_tid <- tid;
  st.step_footprints <- [];
  (match get_status st tid with
  | Not_started f -> start_thread st tid f
  | Paused (op, k) ->
    let v = exec_visible st tid op in
    Vec.push st.values.(tid) v;
    Effect.Deep.continue k v;
    drain st tid
  | Finished -> invalid_arg "step: finished thread");
  st.step_footprints

let mk_state ?pick ?prune ~config ~trace main =
  let st =
    {
      config;
      exec = Execution.create ();
      threads = Array.make 4 Finished;
      nthreads = 0;
      trace;
      pick;
      prune;
      cursor = 0;
      annots = Vec.create ();
      bugs = [];
      last_atomic = Array.make 4 None;
      counters = counters_create ();
      values = Array.init 4 (fun _ -> Vec.create ());
      step_footprints = [];
      replaying = false;
      cur_tid = 0;
      hook = (fun _ -> None);
      n_switches = 0;
      n_inline = 0;
      s_snaps = None;
      step_snap = None;
      step_sleep0 = 0;
      hook_c0 = max_int;
      n_hook_snaps = 0;
    }
  in
  st.hook <- make_hook st;
  ignore (add_thread st (Not_started main));
  st

(* ------------------------------------------------------------------ *)
(* Sessions: copy-free snapshot/restore across a DFS exploration.

   A session keeps one [state] (and one arena-backed [Execution.t])
   alive across every run of the search. At each step that records
   decisions it captures a snapshot — arena watermarks plus the few O(1)
   or O(threads) scheduler scalars — indexed by trace position. After
   the explorer backtracks, [session_run] restores the snapshot of the
   bumped decision's step instead of re-running the program prefix:
   the graph rewinds by arena truncation, scheduler scalars come back
   from the snapshot, and only the program closures are re-run — in a
   cheap replay mode that feeds each thread the values its operations
   returned (logged during commit), skipping all graph work. *)

type session = {
  st : state;
  main : unit -> unit;
  mutable started : bool;
  snaps : snapshot Vec.t;  (* parallel to trace indices *)
  mutable n_snapshots : int;
  mutable n_restores : int;
}

(* Rebuild the thread fibers a restored snapshot needs, feeding each
   re-run closure the logged values (truncated to the snapshot's
   consumption counts) and leaving it paused at its pending operation —
   or finished, when the snapshot had it finished. No graph or
   bookkeeping work happens here: the graph was rewound by
   [Execution.restore] and the scheduler scalars come from the snapshot.

   Every thread that had started by the snapshot replays from scratch —
   even one whose live fiber happens to still sit at exactly the
   snapshot position. Partial replay is unsound for side effects: user
   closures are free to touch mutable state shared across threads (the
   canonical pattern is a main closure that resets a per-thread
   observation buffer each execution, which spawned closures then
   append to), and re-executing some closures' effects but not others
   tears that state in ways a fresh run never would. A full replay
   re-executes every effect in a spawn-tree-compatible order, exactly
   like the fresh run the legacy engine does — just without performing
   a single scheduling effect or graph commit. Threads the snapshot has
   as not-yet-started only need their closure re-registered, which
   their parent's replayed Spawn does; a spawned child always has a
   higher tid than its parent, so driving threads in tid order
   guarantees each child's closure is registered before its own
   turn. *)
let replay_threads st main (snap : snapshot) =
  let started tid = snap.s_stat.(tid) <> 0 in
  (* every fiber is stale (threads spawned after the snapshot are
     simply gone); parents re-register their children *)
  for tid = 0 to Array.length st.threads - 1 do
    drop_fiber st.threads.(tid);
    st.threads.(tid) <- Finished
  done;
  if started 0 then st.threads.(0) <- Not_started main;
  (* Value feeding happens in the dispatcher's replay feed (no effect —
     and no [op] record — per replayed operation); a perform only
     reaches this handler when the thread's log is exhausted, i.e. at
     the visible operation it was paused at when the snapshot was
     taken. The handler stays installed on the rebuilt fiber for the
     rest of its life, so retc/exnc must carry both behaviours: while
     [st.replaying] they commit nothing (the restored graph already
     holds those actions); afterwards — when the scheduler resumes the
     fiber live — they are byte-for-byte the normal [handler]. *)
  let replay_handler tid =
    {
      Effect.Deep.retc =
        (fun () ->
          if not st.replaying then ignore (Execution.commit_finish st.exec ~tid);
          set_status st tid Finished);
      exnc =
        (fun e ->
          if st.replaying then set_status st tid Finished
          else begin
            match e with
            | Prune _ -> raise e
            | _ ->
              st.bugs <-
                Bug.Assertion_failure
                  { tid; message = "uncaught exception: " ^ Printexc.to_string e }
                :: st.bugs;
              ignore (Execution.commit_finish st.exec ~tid);
              set_status st tid Finished
          end);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Program.Do op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                st.n_switches <- st.n_switches + 1;
                set_status st tid (Paused (op, k)))
          | _ -> None);
    }
  in
  let d = Domain.DLS.get Program.dispatch in
  let saved = d.Program.hook in
  d.Program.hook <- Some st.hook;
  d.Program.rp_spawn <- (fun child f -> st.threads.(child) <- Not_started f);
  st.replaying <- true;
  Fun.protect
    ~finally:(fun () ->
      st.replaying <- false;
      d.Program.rp_limit <- 0;
      d.Program.hook <- saved)
    (fun () ->
      for tid = 0 to snap.s_nthreads - 1 do
        if started tid then begin
          match st.threads.(tid) with
          | Not_started f ->
            st.cur_tid <- tid;
            let vs = st.values.(tid) in
            d.Program.rp_vals <- Vec.unsafe_data vs;
            d.Program.rp_next <- 0;
            d.Program.rp_limit <- Vec.length vs;
            Effect.Deep.match_with f () (replay_handler tid)
          | _ -> assert false
        end
      done)

let restore_to s (snap : snapshot) =
  let st = s.st in
  Execution.restore st.exec snap.s_mark;
  let cj = st.counters.cj in
  while Vec.length cj > snap.s_opc do
    decr (Vec.pop cj)
  done;
  st.bugs <- snap.s_bugs;
  Vec.truncate st.annots snap.s_nannots;
  st.nthreads <- snap.s_nthreads;
  Array.blit snap.s_last_atomic 0 st.last_atomic 0 snap.s_nthreads;
  for i = snap.s_nthreads to Array.length st.last_atomic - 1 do
    st.last_atomic.(i) <- None
  done;
  for i = 0 to Array.length st.values - 1 do
    Vec.truncate st.values.(i) (if i < snap.s_nthreads then snap.s_vcount.(i) else 0)
  done;
  replay_threads st s.main snap

(* The search loop shared by [run] (fresh state every call) and
   [session_run] (persistent state, snapshot recording). Snapshots are
   captured at step start and attached to every decision index the step
   records or consumes — including when the step aborts with [Prune], so
   a later backtrack to one of its decisions can still restore. *)
let run_loop ?session st sleep0 =
  let d = Domain.DLS.get Program.dispatch in
  let saved = d.Program.hook in
  d.Program.hook <- Some st.hook;
  (* Decision indices at or past [hook_c0] were already filed (with
     their own mid-step snapshots) by the dispatch hook — never
     overwrite those. *)
  let record_snaps c0 snap =
    match session, snap with
    | Some s, Some sn ->
      let stop = if st.hook_c0 < st.cursor then st.hook_c0 else st.cursor in
      for i = c0 to stop - 1 do
        if i < Vec.length s.snaps then Vec.set s.snaps i sn
        else begin
          assert (i = Vec.length s.snaps);
          Vec.push s.snaps sn
        end
      done
    | _ -> ()
  in
  let rec loop sleep =
    (* One scan classifies every thread: finished, enabled, and (enabled
       and not asleep) available — no list is built on this path. *)
    let all_fin = ref true and nen = ref 0 and nav = ref 0 and first_av = ref (-1) and avail = ref 0 in
    for tid = 0 to st.nthreads - 1 do
      (match st.threads.(tid) with Finished -> () | _ -> all_fin := false);
      if is_enabled st tid then begin
        incr nen;
        if sleep land (1 lsl tid) = 0 then begin
          avail := !avail lor (1 lsl tid);
          incr nav;
          if !first_av < 0 then first_av := tid
        end
      end
    done;
    if !all_fin then Complete
    else if !nen = 0 then begin
      let blocked = ref [] in
      for tid = st.nthreads - 1 downto 0 do
        match get_status st tid with Finished -> () | _ -> blocked := tid :: !blocked
      done;
      st.bugs <- Bug.Deadlock { blocked_tids = !blocked } :: st.bugs;
      Complete
    end
    else if !nav = 0 then raise (Prune Pruned_sleep_set)
    else begin
      let c0 = st.cursor in
      let snap =
        match session with
        | Some s ->
          (* A single-candidate step whose operation makes no value
             choice ([may_decide]) records no decision, so its snapshot
             could never be restored to — skip the capture. Operations
             the step's drain inlines afterwards capture their own
             mid-step snapshots and file every index they record, so no
             decision is left pointing at a skipped snapshot. *)
          let skip =
            !nav = 1
            &&
            match get_status st !first_av with
            | Paused (op, _) -> not (may_decide op)
            | Not_started _ -> true
            | Finished -> false
          in
          if skip then None
          else begin
            s.n_snapshots <- s.n_snapshots + 1;
            Some (capture st sleep)
          end
        | None -> None
      in
      st.step_snap <- snap;
      st.step_sleep0 <- sleep;
      st.hook_c0 <- max_int;
      let slept_mask, footprints =
        try
          let tid, slept =
            if !nav = 1 then (!first_av, 0)
            else choose_sched st ~sleep ~avail:!avail ~nav:!nav
          in
          (slept, step st tid)
        with e ->
          record_snaps c0 snap;
          raise e
      in
      record_snaps c0 snap;
      let sleep =
        if not st.config.sleep_sets then 0
        else begin
          let m = sleep lor slept_mask in
          let out = ref 0 in
          for tid = 0 to st.nthreads - 1 do
            if m land (1 lsl tid) <> 0 && keep_asleep st footprints tid then
              out := !out lor (1 lsl tid)
          done;
          !out
        end
      in
      loop sleep
    end
  in
  Fun.protect
    ~finally:(fun () -> d.Program.hook <- saved)
    (fun () -> try loop sleep0 with Prune reason -> reason)

let mk_result st outcome =
  {
    exec = st.exec;
    annots = Vec.to_list st.annots;
    bugs = List.rev st.bugs;
    outcome;
    switches = st.n_switches;
    inline_ops = st.n_inline;
  }

(* Free the fibers of every thread still suspended: the run is over. *)
let drop_fibers st =
  Array.iteri
    (fun tid status ->
      drop_fiber status;
      st.threads.(tid) <- Finished)
    st.threads

let run ?pick ?prune ~config ~trace main =
  let st = mk_state ?pick ?prune ~config ~trace main in
  let outcome = run_loop st 0 in
  drop_fibers st;
  mk_result st outcome

let session_create ?prune ~config ~trace main =
  let st = mk_state ?prune ~config ~trace main in
  let snaps = Vec.create () in
  st.s_snaps <- Some snaps;
  { st; main; started = false; snaps; n_snapshots = 0; n_restores = 0 }

let session_run s =
  let st = s.st in
  if not s.started then begin
    s.started <- true;
    mk_result st (run_loop ~session:s st 0)
  end
  else begin
    (* The explorer's backtrack leaves the bumped decision last in the
       trace; its step-start snapshot is the restore point. Decisions of
       one step share their snapshot physically, so the first decision
       index of that step — where the cursor must resume so the step's
       earlier (unchanged) decisions replay through the normal commit
       path — is found by walking [==]-equal snapshots backwards. *)
    let l = Vec.length st.trace in
    assert (l > 0 && l <= Vec.length s.snaps);
    Vec.truncate s.snaps l;
    let snap = Vec.get s.snaps (l - 1) in
    let first = ref (l - 1) in
    while !first > 0 && Vec.get s.snaps (!first - 1) == snap do
      decr first
    done;
    restore_to s snap;
    st.cursor <- !first;
    s.n_restores <- s.n_restores + 1;
    mk_result st (run_loop ~session:s st snap.s_sleep)
  end

let session_close s = drop_fibers s.st

let session_counters s = (s.n_snapshots, s.n_restores)

let session_exec s = s.st.exec
