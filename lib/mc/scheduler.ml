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
}

let default_config = { loop_bound = 8; max_actions = 4000; sleep_sets = true }

type outcome =
  | Complete
  | Pruned_loop_bound of { tid : int; loc : int }
  | Pruned_max_actions
  | Pruned_sleep_set
  | Pruned_equiv
  | Pruned_retry

type run_result = {
  exec : Execution.t;
  annots : annot list;
  bugs : Bug.t list;
  outcome : outcome;
  switches : int;
  inline_ops : int;
}

exception Prune of outcome

exception Diverged


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

(* Scheduler scalars + arena watermark captured at the start of a step
   that may record decisions; the session machinery below stores them. *)
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
  mutable waits : (int * int) list array;
      (* per blocked [retry] thread: (location, store read) of each read
         of its failed iteration; set whenever the thread pauses there *)
  counters : counters;
  mutable values : int Vec.t array;  (* per-thread log of the values ops returned *)
  mutable step_footprints : footprint list;  (* footprints of the current step *)
  mutable replaying : bool;  (* inside [replay_threads]: feed logged values, no commits *)
  mutable cur_tid : int;  (* thread whose fiber the scheduler is currently driving *)
  mutable hook : Program.op -> int option;  (* invisible-op dispatch hook, closed over this state *)
  mutable n_switches : int;  (* fiber suspensions: operations that performed an effect *)
  mutable n_inline : int;  (* invisible operations committed inside the hook *)
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
    st.last_atomic <- last;
    let waits = Array.make (2 * (tid + 1)) [] in
    Array.blit st.waits 0 waits 0 st.nthreads;
    st.waits <- waits
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
   default choice. Trivial (single-alternative) points are not recorded.
   A replayed decision of another kind or arity, or with its chosen
   index out of range, raises [Diverged]. *)
let choose st num =
  if num <= 1 then 0
  else if st.cursor < Vec.length st.trace then begin
    match Vec.get st.trace st.cursor with
    | Choice d when d.num = num && d.choice_chosen < num ->
      st.cursor <- st.cursor + 1;
      d.choice_chosen
    | Choice _ | Sched _ -> raise Diverged
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

(* A replayed scheduling decision must list exactly the threads
   available at the live point, in tid order: then its chosen index
   names the same thread, and its earlier siblings the same sleepers. *)
let same_candidates st candidates ~avail ~nav =
  Array.length candidates = nav
  &&
  let i = ref 0 and same = ref true in
  for tid = 0 to st.nthreads - 1 do
    if avail land (1 lsl tid) <> 0 then begin
      if candidates.(!i) <> tid then same := false;
      incr i
    end
  done;
  !same

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
      | Sched d when d.sched_chosen < nav && same_candidates st d.candidates ~avail ~nav -> d
      | Sched _ | Choice _ -> raise Diverged
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
  (* Under DFS, earlier siblings were already explored: they are the
     step's sleep-set contribution. A sampling session has sleep sets
     off ([session_create]), so there the mask goes unused. *)
  let slept = ref 0 in
  for i = 0 to d.sched_chosen - 1 do
    slept := !slept lor (1 lsl d.candidates.(i))
  done;
  (d.candidates.(d.sched_chosen), !slept)

let kind_tag : Program.op -> int = function
  | Load _ | Await _ -> 0
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
  | Await { site; _ }
  | Store { site; _ }
  | Cas { site; _ }
  | Fetch_add { site; _ }
  | Exchange { site; _ }
  | Na_load { site; _ }
  | Na_store { site; _ } ->
    site
  | Fence _ | Alloc _ | Spawn _ | Join _ | Annotate _ | Check _ | Retry_begin | Retry_fail _ ->
    None

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
  | Load { loc; _ } | Await { loc; _ } | Na_load { loc; _ } -> Mem { loc; write = false }
  | Store { loc; _ } | Cas { loc; _ } | Fetch_add { loc; _ } | Exchange { loc; _ } | Na_store { loc; _ }
    ->
    Mem { loc; write = true }
  | Fence _ -> Global
  | Alloc _ | Spawn _ | Join _ | Annotate _ | Check _ | Retry_begin | Retry_fail _ -> Pure

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

(* An await may read the stores of its read window that [until] accepts,
   and poison ones (uninitialized memory: the spin would read garbage
   there, and the load reports it). A window with no store at all
   (memory never allocated) reads uninitialized too, as a load does. *)
let await_accepts until (w : C11.Action.t) =
  match w.written_value with Some v -> until v | None -> true

(* The await's enabledness test: a waiting thread is schedulable
   exactly when its step can commit. The mo-latest store is in every
   read window, so when it is accepted no floor query is needed. *)
let await_enabled st tid ~mo ~loc ~until =
  match Execution.rmw_candidate st.exec ~loc with
  | None -> true
  | Some newest when await_accepts until newest -> true
  | Some _ ->
    let n = Execution.read_window st.exec ~tid ~mo ~loc in
    let rec any i =
      i < n && (await_accepts until (Execution.read_candidate st.exec ~loc i) || any (i + 1))
    in
    any 1

(* Execute a visible operation for [tid] and return the value to resume
   the thread with. *)
let exec_visible st tid (op : Program.op) =
  add_footprint st (op_footprint op);
  (match op with
  | Load { loc; _ }
  | Await { loc; _ }
  | Store { loc; _ }
  | Cas { loc; _ }
  | Fetch_add { loc; _ }
  | Exchange { loc; _ } ->
    bump_op_count st tid loc op
  (* fences are not bounded: a loop always contains a bounded load/RMW,
     and straight-line code may legitimately fence often *)
  | Fence _ | Join _ | Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _
  | Retry_begin | Retry_fail _ ->
    ());
  match op with
  | Program.Load { mo; loc; site } ->
    let n = Execution.read_window st.exec ~tid ~mo ~loc in
    let rf = if n = 0 then None else Some (Execution.read_candidate st.exec ~loc (choose st n)) in
    let a, problems = Execution.commit_load st.exec ~tid ~mo ~loc ~rf ?site () in
    record_problems st problems;
    note_atomic st tid a;
    (match a.read_value with Some v -> v | None -> 0)
  | Await { mo; loc; until; site } ->
    (* Only reached when enabled: a reads-from choice over the accepted
       candidates, newest first, like a load's over its whole window. *)
    let n = Execution.read_window st.exec ~tid ~mo ~loc in
    let rf =
      if n = 0 then None
      else begin
        let num = ref 0 in
        for i = 0 to n - 1 do
          if await_accepts until (Execution.read_candidate st.exec ~loc i) then incr num
        done;
        let rec nth i k =
          let w = Execution.read_candidate st.exec ~loc i in
          if not (await_accepts until w) then nth (i + 1) k
          else if k = 0 then w
          else nth (i + 1) (k - 1)
        in
        Some (nth 0 (choose st !num))
      end
    in
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
  | Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _ | Retry_begin | Retry_fail _ ->
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
  | Retry_begin -> Execution.num_actions st.exec
  | Load _ | Await _ | Store _ | Cas _ | Fetch_add _ | Exchange _ | Fence _ | Join _ | Retry_fail _
    ->
    invalid_arg "exec_invisible: visible op"

let is_invisible : Program.op -> bool = function
  | Program.Na_load _ | Na_store _ | Alloc _ | Spawn _ | Annotate _ | Check _ | Retry_begin -> true
  | Load _ | Await _ | Store _ | Cas _ | Fetch_add _ | Exchange _ | Fence _ | Join _ | Retry_fail _ ->
    false

(* What a failed [Program.retry] iteration of [tid] leads to. The
   iteration is every action [tid] committed since action [since]. *)
type retry_verdict =
  | Wrote of C11.Action.t  (* misuse: a failed iteration must not write *)
  | Again  (* it recorded a bug: loop on under the loop bound, as the plain loop does *)
  | Stale  (* a read took a store its location has since overwritten: cut the run *)
  | Wait of (int * int) list
      (* every read took its location's newest store: block on these
         (location, store read) pairs *)

(* A retry waiting on [(loc, w)] is woken by any later write to [loc]. *)
let overwritten st (loc, w) =
  match Execution.rmw_candidate st.exec ~loc with
  | Some newest -> newest.id <> w
  | None -> true

(* Did a commit of [tid] since action [since] report a race or an
   uninitialized load? Bugs are listed newest first, each under the
   action whose commit reported it, so the walk ends at the first one
   reported before [since]. A race that a later write of another thread
   reports against the iteration does not count: that write overwrites
   a location the iteration read, which cuts the run whenever it comes,
   so the verdict does not depend on the order of independent steps. *)
let rec bug_since tid since : Bug.t list -> bool = function
  | [] -> false
  | (Uninitialized_load a | Data_race { second = a; _ }) :: rest ->
    a.id >= since && (a.tid = tid || bug_since tid since rest)
  | (Deadlock _ | Assertion_failure _ | Spec_violation _) :: rest -> bug_since tid since rest

let retry_verdict st tid since =
  let n = Execution.num_actions st.exec in
  let rec scan i reads =
    if i >= n then
      if bug_since tid since st.bugs then Again
      else if List.exists (overwritten st) reads then Stale
      else Wait reads
    else begin
      let a = Execution.action st.exec i in
      if a.tid <> tid then scan (i + 1) reads
      else
        match a.kind with
        | Store | Rmw | Na_store | Create _ -> Wrote a
        | Load | Na_load -> (
          match a.rf with Some w -> scan (i + 1) ((a.loc, w) :: reads) | None -> scan (i + 1) reads)
        | Fence | Start | Join _ | Finish -> scan (i + 1) reads
    end
  in
  scan since []

(* A started thread is enabled when its pending operation can commit
   now: a [Join] once its target has finished, an [Await] once its window
   holds a store it accepts, a failed [retry] never; everything else
   always. A write to a location the failed retry read cuts the run
   here, at the next step's start: the run in which the retry reads that
   write without failing first is another branch. *)
let is_enabled st tid =
  match get_status st tid with
  | Not_started _ -> true
  | Finished -> false
  | Paused (Join target, _) ->
    target < st.nthreads && (match get_status st target with Finished -> true | _ -> false)
  | Paused (Await { mo; loc; until; _ }, _) -> await_enabled st tid ~mo ~loc ~until
  | Paused (Retry_fail _, _) ->
    if List.exists (overwritten st) st.waits.(tid) then raise (Prune Pruned_retry);
    false
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

(* Only loads, awaits and CAS record (reads-from / branch-direction)
   decisions; a single-candidate step whose operation is anything else
   records none, and [run_loop] skips its snapshot. A wrong [false] here
   would leave a decision with no snapshot to restore it from. *)
let may_decide : Program.op -> bool = function
  | Program.Load _ | Await _ | Cas _ -> true
  | _ -> false

(* The [Program.dispatch] hook of live runs ([run_loop] installs it):
   commit an invisible operation inside the running fiber, logging its
   value for restore-replay. Invisible operations are never scheduling
   points, so the effect round-trip would only hand control to the
   scheduler and straight back. A failed [retry] iteration that must
   loop on returns here too, and one that read an overwritten store
   cuts the run. [None] — every visible operation, and a failed retry
   that blocks or wrote — performs the effect and pauses the fiber;
   [step] commits it, or [handler] settles the retry. *)
let inline st tid v =
  Vec.push st.values.(tid) v;
  st.n_inline <- st.n_inline + 1;
  Some v

let make_hook st (op : Program.op) =
  let tid = st.cur_tid in
  match op with
  | Retry_fail { since } -> (
    match retry_verdict st tid since with
    | Again -> inline st tid 0
    | Stale -> raise (Prune Pruned_retry)
    | Wrote _ | Wait _ -> None)
  | _ -> if is_invisible op then inline st tid (exec_invisible st tid op) else None

(* One handler for live and restore-replayed fibers: a rebuilt fiber
   keeps it for the rest of its life, so while [st.replaying] it commits
   nothing (the restored graph already holds those actions) and records
   no bug (the restored bug list already has it).

   A failed [retry] reaches [effc] when it blocks or wrote: live, after
   the hook passed it on, and in a restore-replay, where no hook runs
   and its thread's logged values end there. Its verdict is a function
   of the graph, which a restore rewinds to a point where it held, so
   both paths settle it the same way: a blocked thread records what it
   waits on, and a write is raised in the thread as [Invalid_argument]. *)
let handler st tid =
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
              Bug.Assertion_failure { tid; message = "uncaught exception: " ^ Printexc.to_string e }
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
              match op with
              | Retry_fail { since } -> (
                match retry_verdict st tid since with
                | Wait reads ->
                  st.waits.(tid) <- reads;
                  set_status st tid (Paused (op, k))
                | Wrote a ->
                  Effect.Deep.discontinue k
                    (Invalid_argument
                       (Printf.sprintf "Program.retry: a failed iteration wrote (%s)"
                          (match a.kind, a.site with
                          | Create _, _ -> "spawn"
                          | _, Some site -> site
                          | _, None -> "unsited write")))
                | Again | Stale -> assert false (* answered by the hook, never replayed *))
              | _ -> set_status st tid (Paused (op, k)))
        | _ -> None);
  }

(* One scheduling step: start the thread or commit its pending visible
   operation, then run it to its next visible operation (the hook commits
   the invisible ones on the way). Returns the footprints of everything
   it committed. *)
let step st tid =
  st.cur_tid <- tid;
  st.step_footprints <- [];
  (match get_status st tid with
  | Not_started f ->
    ignore (Execution.commit_start st.exec ~tid);
    Effect.Deep.match_with f () (handler st tid)
  | Paused (op, k) ->
    let v = exec_visible st tid op in
    Vec.push st.values.(tid) v;
    Effect.Deep.continue k v
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
      waits = Array.make 4 [];
      counters = counters_create ();
      values = Array.init 4 (fun _ -> Vec.create ());
      step_footprints = [];
      replaying = false;
      cur_tid = 0;
      hook = (fun _ -> None);
      n_switches = 0;
      n_inline = 0;
    }
  in
  st.hook <- make_hook st;
  ignore (add_thread st (Not_started main));
  st

(* ------------------------------------------------------------------ *)
(* Sessions: copy-free snapshot/restore across a search.

   A session keeps one [state] (and one arena-backed [Execution.t])
   alive across every run of the search. At each step that records
   decisions it captures a snapshot — arena watermarks plus the few O(1)
   or O(threads) scheduler scalars — indexed by trace position. After
   the explorer backtracks, [session_run] restores the snapshot of the
   bumped decision's step instead of re-running the program prefix:
   the graph rewinds by arena truncation, scheduler scalars come back
   from the snapshot, and only the program closures are re-run — in a
   cheap replay mode that feeds each thread the values its operations
   returned (logged during commit), skipping all graph work. When the
   caller empties the trace, the root snapshot (taken before the first
   step) restarts the run from action zero: a sampling session, one
   created with [pick], runs every execution that way. *)

type session = {
  st : state;
  main : unit -> unit;
  root : snapshot;  (* before the first step: main registered, not started *)
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
   like a run from action zero does — just without performing
   a single scheduling effect or graph commit. Threads the snapshot has
   as not-yet-started only need their closure re-registered, which
   their parent's replayed Spawn does; a spawned child always has a
   higher tid than its parent, so driving threads in tid order
   guarantees each child's closure is registered before its own
   turn. *)
let replay_threads st main (snap : snapshot) =
  let started tid = snap.s_stat.(tid) <> 0 in
  (* every fiber is stale (threads spawned after the snapshot are
     simply gone); parents re-register their children, and [main] is
     thread 0 in every snapshot (at the root it has not started) *)
  for tid = 0 to Array.length st.threads - 1 do
    drop_fiber st.threads.(tid);
    st.threads.(tid) <- Finished
  done;
  st.threads.(0) <- Not_started main;
  (* Value feeding happens in the dispatcher's replay feed (no effect —
     and no [op] record — per replayed operation), with no hook: an
     operation only gets past the feed when the thread's log is
     exhausted, i.e. at the visible operation it was paused at when the
     snapshot was taken, and performs the effect that parks it there. *)
  let d = Domain.DLS.get Program.dispatch in
  let saved = d.Program.hook in
  d.Program.hook <- None;
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
            Effect.Deep.match_with f () (handler st tid)
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

(* A run completes only on the whole of its trace: recorded decisions
   left unconsumed mean the trace was recorded against another program. *)
let completed st = if st.cursor < Vec.length st.trace then raise Diverged else Complete

(* The search loop behind [session_run]. Snapshots are captured at step
   start and attached to every decision index the step records or
   consumes — including when the step aborts with [Prune], so a later
   backtrack to one of its decisions can still restore. A sampling
   session captures none: only its root is ever restored. *)
let run_loop s sleep0 =
  let st = s.st in
  let d = Domain.DLS.get Program.dispatch in
  let saved = d.Program.hook in
  d.Program.hook <- Some st.hook;
  let record_snaps c0 = function
    | None -> ()
    | Some sn ->
      for i = c0 to st.cursor - 1 do
        if i < Vec.length s.snaps then Vec.set s.snaps i sn
        else begin
          assert (i = Vec.length s.snaps);
          Vec.push s.snaps sn
        end
      done
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
    if !all_fin then completed st
    else if !nen = 0 then begin
      let blocked = ref [] in
      for tid = st.nthreads - 1 downto 0 do
        match get_status st tid with Finished -> () | _ -> blocked := tid :: !blocked
      done;
      st.bugs <- Bug.Deadlock { blocked_tids = !blocked } :: st.bugs;
      completed st
    end
    else if !nav = 0 then raise (Prune Pruned_sleep_set)
    else begin
      let c0 = st.cursor in
      (* A single-candidate step whose operation makes no value choice
         ([may_decide]) records no decision, so its snapshot could never
         be restored to — skip the capture. The step commits only that
         operation (the hook commits the invisible ones after it, which
         decide nothing), so a wrong [false] from [may_decide] would
         leave a decision with no snapshot; [record_snaps] and
         [session_run] assert against it. *)
      let skip =
        st.pick <> None
        || !nav = 1
           &&
           match get_status st !first_av with
           | Paused (op, _) -> not (may_decide op)
           | Not_started _ -> true
           | Finished -> false
      in
      let snap =
        if skip then None
        else begin
          s.n_snapshots <- s.n_snapshots + 1;
          Some (capture st sleep)
        end
      in
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

let session_create ?pick ?prune ~config ~trace main =
  let config = if pick = None then config else { config with sleep_sets = false } in
  let st = mk_state ?pick ?prune ~config ~trace main in
  let root = capture st 0 in
  { st; main; root; started = false; snaps = Vec.create (); n_snapshots = 0; n_restores = 0 }

let session_run s =
  let st = s.st in
  if not s.started then begin
    s.started <- true;
    mk_result st (run_loop s 0)
  end
  else begin
    (* The explorer's backtrack leaves the bumped decision last in the
       trace; its step-start snapshot is the restore point. Decisions of
       one step share their snapshot physically, so the first decision
       index of that step — where the cursor must resume so the step's
       earlier (unchanged) decisions replay through the normal commit
       path — is found by walking [==]-equal snapshots backwards. An
       emptied trace restarts from the root, at cursor 0. *)
    let l = Vec.length st.trace in
    assert (l <= Vec.length s.snaps);
    Vec.truncate s.snaps l;
    let snap = if l = 0 then s.root else Vec.get s.snaps (l - 1) in
    let first = ref (l - 1) in
    while !first > 0 && Vec.get s.snaps (!first - 1) == snap do
      decr first
    done;
    restore_to s snap;
    st.cursor <- max 0 !first;
    s.n_restores <- s.n_restores + 1;
    mk_result st (run_loop s snap.s_sleep)
  end

(* Free the fibers of every thread still suspended: the search is over. *)
let session_close s =
  Array.iteri
    (fun tid status ->
      drop_fiber status;
      s.st.threads.(tid) <- Finished)
    s.st.threads

let session_counters s = (s.n_snapshots, s.n_restores)

let session_exec s = s.st.exec
