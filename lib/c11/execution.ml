

type problem =
  | Data_race of { first : Action.t; second : Action.t }
  | Uninitialized_load of Action.t

(* ------------------------------------------------------------------ *)
(* Canonical graph fingerprint                                         *)

(* Incremental 64-bit fingerprint of the execution graph, invariant
   under the commit interleaving: two runs whose graphs agree on
   per-thread action sequences (kinds, locations, orders, values, and
   reads-from expressed as the (tid, seq) of the source write), on
   per-location modification order, and on the SC total order restricted
   to seq_cst actions hash equal — and runs differing in any of those
   hash differently (modulo 64-bit collisions). Thread ids are already
   canonical: they are assigned in creation order.

   Representation: an order-sensitive digest chain per thread, per
   location (mo) and for the SC order, XOR-folded into one running
   aggregate. Each chain update costs O(1): the aggregate is XORed with
   [old_chain ^ new_chain], so no end-of-run walk is needed.

   Chains are mixed in native [int] (63-bit, wrapping) so the hot path
   never boxes — an [Int64] digest would allocate on every arithmetic
   step. The exported {!fingerprint} widens to [int64] at the
   boundary. *)

let mixh z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let golden = 0x1E3779B97F4A7C15
let h_step h x = mixh ((h * golden) + x)
let h_int h (i : int) = h_step h i
let h_opt h = function None -> h_int h (-2) | Some v -> h_int (h_int h 2) v

let kind_tag : Action.kind -> int = function
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

(* The embedded thread id of Create/Join is part of the behaviour: it is
   the value the operation returns to (or consumes from) the program. *)
let kind_payload : Action.kind -> int = function
  | Create t | Join t -> t
  | Load | Store | Rmw | Na_load | Na_store | Fence | Start | Finish -> -1

let mo_tag : Memory_order.t -> int = function
  | Relaxed -> 0
  | Acquire -> 1
  | Release -> 2
  | Acq_rel -> 3
  | Seq_cst -> 4

type thread_state = {
  mutable clock : Clock.t;  (* knowledge including own committed steps *)
  mutable seq : int;
  mutable pending_acquire : Clock.t;  (* rule 29.8p3/p4: consumed by acquire fences *)
  mutable release_fence : Clock.t option;  (* clock at the latest release fence *)
  mutable sc_fences : (int * int) list;  (* (seq, commit id), newest first *)
  mutable inherited : Clock.t;  (* parent clock at Create, joined at Start *)
  mutable fp_chain : int;  (* fingerprint chain over this thread's actions *)
  chain : int Vec.t;  (* this thread's action ids, in commit order *)
  fp_hist : int Vec.t;  (* fp_chain value before each of this thread's actions *)
}

(* Undo journal for the thread/graph scalars that are overwritten rather
   than appended on commit: each entry stores the value a field held
   before one commit mutated it. [restore] pops entries (newest first)
   until the journal is back at the watermark, so nested overwrites of
   the same field unwind to exactly the value it held at the mark. *)
type jentry =
  | J_pending of int * Clock.t  (* tid, previous pending_acquire *)
  | J_release_fence of int * Clock.t option  (* tid, previous release_fence *)
  | J_inherited of int * Clock.t  (* tid, previous inherited *)
  | J_next_loc of int  (* previous next_loc *)

type loc_state = {
  stores : Action.t Vec.t;  (* every write, commit order = modification order *)
  reads : (Action.t * int) Vec.t;  (* atomic reads with the mo index they read *)
  na_reads : Action.t Vec.t;
  rfk : Rf_kernel.loc;
      (* rf-consistency saturation state: per-thread coherence columns
         and the SC-store order, fed on every commit/undo (see
         rf_kernel.mli). Monotonicity of its columns is what lets
         candidate filtering binary-search instead of rescanning the
         whole store list. *)
  mutable na_stores : int;  (* non-atomic stores: gates race scans *)
  mutable fp_mo : int;  (* fingerprint chain over mo *)
  fp_mo_hist : int Vec.t;  (* fp_mo value before each store to this location *)
  acq_memo : Clock.t option Vec.t;
      (* memoized [acquired_clock] per mo index — a pure function of the
         store prefix up to that index, which arena truncation preserves,
         so entries survive (and pay off across) backtracking restores.
         Kept the same length as [stores]. *)
}

type t = {
  actions : Action.t Vec.t;
  mo_idx : int Vec.t;  (* action id -> mo index of the store, or -1 *)
  mutable threads : thread_state array;
  locs : loc_state option Vec.t;  (* dense: indexed by location id *)
  mutable next_loc : int;
  mutable fp : int;  (* XOR-fold of all fingerprint chains *)
  mutable fp_sc : int;  (* fingerprint chain over the SC order *)
  fp_sc_hist : int Vec.t;  (* fp_sc value before each seq_cst action *)
  journal : jentry Vec.t;
  mutable sc_fence_live : int;
      (* committed seq_cst fences across all threads. Zero means the
         fence-mediated SC rules (29.3p5/p6/p7) are all vacuous, so the
         kernel's floor skips them. *)
  rfc : Rf_kernel.counters;
  mutable n_commits : int;
      (* cumulative actions committed, never rewound by [restore] —
         a phase counter, like [rfc], not graph state *)
}

let create () =
  {
    actions = Vec.create ();
    mo_idx = Vec.create ();
    threads = [||];
    locs = Vec.create ();
    next_loc = 0;
    fp = 0;
    fp_sc = 0;
    fp_sc_hist = Vec.create ();
    journal = Vec.create ();
    sc_fence_live = 0;
    rfc = Rf_kernel.counters_create ();
    n_commits = 0;
  }

let rf_counters t = (t.rfc.Rf_kernel.queries, t.rfc.Rf_kernel.rejected)
let commit_count t = t.n_commits

let new_thread_state () =
  {
    clock = Clock.empty;
    seq = 0;
    pending_acquire = Clock.empty;
    release_fence = None;
    sc_fences = [];
    inherited = Clock.empty;
    fp_chain = 0;
    chain = Vec.create ();
    fp_hist = Vec.create ();
  }

let thread t tid =
  let n = Array.length t.threads in
  if tid >= n then begin
    let threads = Array.init (tid + 4) (fun i -> if i < n then t.threads.(i) else new_thread_state ()) in
    t.threads <- threads
  end;
  t.threads.(tid)

let find_loc t loc = if loc < Vec.length t.locs then Vec.get t.locs loc else None

let loc_state t loc =
  match find_loc t loc with
  | Some ls -> ls
  | None ->
    let ls =
      {
        stores = Vec.create ();
        reads = Vec.create ();
        na_reads = Vec.create ();
        rfk = Rf_kernel.loc_create ();
        na_stores = 0;
        fp_mo = h_int 0 loc;
        fp_mo_hist = Vec.create ();
        acq_memo = Vec.create ();
      }
    in
    while Vec.length t.locs <= loc do
      Vec.push t.locs None
    done;
    Vec.set t.locs loc (Some ls);
    ls

let num_actions t = Vec.length t.actions

let action t id = Vec.get t.actions id

let fingerprint t = Int64.of_int (mixh (t.fp lxor Vec.length t.actions))

(* Index maintenance on commit. *)

let push_store t ls (a : Action.t) =
  let idx = Vec.length ls.stores in
  Vec.push ls.stores a;
  Vec.set t.mo_idx a.id idx;
  Rf_kernel.on_write ls.rfk ~tid:a.tid ~seq:a.seq ~id:a.id ~idx
    ~sc:(Memory_order.is_seq_cst a.mo);
  if a.kind = Action.Na_store then ls.na_stores <- ls.na_stores + 1;
  (* Opportunistic release-sequence memo: [acquired_clock] at the new
     top index is derivable in O(1) for the two shapes the hot paths
     hit — the location's first store (the sequence is just this write),
     and an RMW whose predecessor's memo is known (an RMW atop the chain
     invalidates no lower head, so it only adds its own release clock).
     Anything else stays lazy and is filled by the walk on first read. *)
  let memo =
    if idx = 0 then
      Some (match a.release_clock with Some rc -> rc | None -> Clock.empty)
    else if a.kind = Action.Rmw then begin
      match Vec.get ls.acq_memo (idx - 1) with
      | Some prev ->
        Some
          (match a.release_clock with Some rc -> Clock.join prev rc | None -> prev)
      | None -> None
    end
    else None
  in
  Vec.push ls.acq_memo memo;
  let old = ls.fp_mo in
  Vec.push ls.fp_mo_hist old;
  let nw = h_int (h_int old a.tid) a.seq in
  ls.fp_mo <- nw;
  t.fp <- t.fp lxor old lxor nw

let push_read ls (a : Action.t) idx =
  Vec.push ls.reads (a, idx);
  Rf_kernel.on_read ls.rfk ~tid:a.tid ~seq:a.seq ~idx

(* hb(a, b) where [b] may be a not-yet-committed action of a thread whose
   current clock is [clock_b]. *)
let hb_clock clock_b (a : Action.t) = Clock.covers clock_b ~tid:a.tid ~seq:a.seq

let happens_before t a b =
  let a = action t a and b = action t b in
  Action.happens_before a b

let hb_or_sc t a b =
  if a = b then false
  else
    let aa = action t a and ab = action t b in
    Action.happens_before aa ab
    || (Action.is_seq_cst aa && Action.is_seq_cst ab && aa.id < ab.id)

let last_write t loc =
  match find_loc t loc with
  | Some ls when not (Vec.is_empty ls.stores) -> Some (Vec.last ls.stores)
  | _ -> None

(* Release-sequence walk (C++11 1.10p7, plus the hypothetical release
   sequences of 29.8): the clock acquired by a read of [stores.(rf_index)].
   A head candidate at index [i] is valid when every later chain element up
   to [rf_index] is an RMW or a store by the head's own thread. The walk
   tracks the (at most two relevant) distinct non-RMW tids seen so far in
   two ints, and its result — a pure function of the store prefix — is
   memoized per index in [ls.acq_memo], so across an arena session each
   index is walked once, not once per read. *)
let acquired_clock (ls : loc_state) rf_index =
  match Vec.get ls.acq_memo rf_index with
  | Some c -> c
  | None ->
    (* f1/f2: distinct tids of non-RMW chain elements above the current
       position (-1 = unset). Two distinct foreign tids invalidate every
       lower head, ending the walk. *)
    let rec walk i f1 f2 acc =
      if i < 0 then acc
      else begin
        let w = Vec.get ls.stores i in
        let valid = f1 < 0 || (f2 < 0 && f1 = w.Action.tid) in
        let acc =
          if valid then
            match w.Action.release_clock with
            | Some rc -> Clock.join acc rc
            | None -> acc
          else acc
        in
        let f1, f2 =
          if w.Action.kind = Action.Rmw || w.Action.tid = f1 || w.Action.tid = f2 then (f1, f2)
          else if f1 < 0 then (w.Action.tid, f2)
          else (f1, w.Action.tid)
        in
        if f1 >= 0 && f2 >= 0 then acc else walk (i - 1) f1 f2 acc
      end
    in
    let c = walk rf_index (-1) (-1) Clock.empty in
    Vec.set ls.acq_memo rf_index (Some c);
    c

(* A poison write models the pristine contents of uninitialized malloc'd
   memory: reads that are not forced past it observe garbage, which is
   reported as an uninitialized load. *)
let is_poison (a : Action.t) = Action.is_write a && a.written_value = None

(* Race detection: conflicting accesses (same location, at least one write,
   at least one non-atomic, different threads) unordered by hb. The new
   action [a] commits last, so only hb(prev, a) needs checking. Races need
   a non-atomic party, so for atomic accesses the scans are gated on the
   location having non-atomic accesses at all — on atomics-only locations
   (the common case) the check is O(1). *)
let race_problems (ls : loc_state) (a : Action.t) =
  let races = ref [] in
  let check (prev : Action.t) =
    if prev.tid <> a.tid && (not (is_poison prev)) && not (hb_clock a.clock prev) then
      races := Data_race { first = prev; second = a } :: !races
  in
  let a_is_na = Action.is_non_atomic a in
  (* against previous writes: conflict whenever one side is non-atomic *)
  if a_is_na then Vec.iter (fun (w : Action.t) -> check w) ls.stores
  else if ls.na_stores > 0 then
    Vec.iter (fun (w : Action.t) -> if Action.is_non_atomic w then check w) ls.stores;
  if Action.is_write a then begin
    (* against previous reads *)
    if a_is_na then Vec.iter (fun ((r : Action.t), _) -> check r) ls.reads;
    Vec.iter (fun (r : Action.t) -> check r) ls.na_reads
  end;
  !races

let store_index t (w : Action.t) =
  let i = Vec.get t.mo_idx w.Action.id in
  if i < 0 then invalid_arg "store_index: not a store of this location" else i

(* Smallest modification-order index a new load by [tid] may read,
   combining per-location coherence with the seq_cst rules (see .mli).

   Reference implementation: rescans the full store and read lists per
   query. Kept verbatim as the oracle for the differential tests of the
   incremental version below. *)
let min_readable_ref t ~tid ~mo (ls : loc_state) =
  let ts = thread t tid in
  let n = Vec.length ls.stores in
  let min_idx = ref 0 in
  let raise_to i = if i > !min_idx then min_idx := i in
  (* CoWR/CoRW: newest hb-visible write *)
  (try
     for i = n - 1 downto 0 do
       if hb_clock ts.clock (Vec.get ls.stores i) then begin
         raise_to i;
         raise Exit
       end
     done
   with Exit -> ());
  (* CoRR: newest mo index observed by an hb-prior read *)
  Vec.iter (fun (r, j) -> if hb_clock ts.clock r then raise_to j) ls.reads;
  let latest_sc_fence = match ts.sc_fences with (_, id) :: _ -> Some id | [] -> None in
  let fence_after_store ?bound (w : Action.t) =
    let fences = (thread t w.tid).sc_fences in
    List.exists
      (fun (seq, id) ->
        seq > w.Action.seq && match bound with Some b -> id < b | None -> true)
      fences
  in
  (* seq_cst load: at least the newest seq_cst store (29.3p3) *)
  if Memory_order.is_seq_cst mo then begin
    (try
       for i = n - 1 downto 0 do
         if Action.is_seq_cst (Vec.get ls.stores i) then begin
           raise_to i;
           raise Exit
         end
       done
     with Exit -> ());
    (* store sequenced before a seq_cst fence, seq_cst load (29.3p6) *)
    try
      for i = n - 1 downto 0 do
        if fence_after_store (Vec.get ls.stores i) then begin
          raise_to i;
          raise Exit
        end
      done
    with Exit -> ()
  end;
  (match latest_sc_fence with
  | None -> ()
  | Some fence_id ->
    (* seq_cst fence sequenced before the load (29.3p5): newest seq_cst
       store committed before that fence *)
    (try
       for i = n - 1 downto 0 do
         let w = Vec.get ls.stores i in
         if Action.is_seq_cst w && w.Action.id < fence_id then begin
           raise_to i;
           raise Exit
         end
       done
     with Exit -> ());
    (* fence-to-fence (29.3p7): store before fence X, X before our fence *)
    try
      for i = n - 1 downto 0 do
        if fence_after_store ~bound:fence_id (Vec.get ls.stores i) then begin
          raise_to i;
          raise Exit
        end
      done
    with Exit -> ());
  !min_idx

(* A thread's seq_cst fences, for the kernel's fence rules. Top-level
   and closed, so passing it to [Rf_kernel.floor] allocates nothing. *)
let sc_fences threads u = if u < Array.length threads then threads.(u).sc_fences else []

(* The floor query of the load path: the kernel's binary searches over
   its per-(location, thread) coherence columns (see rf_kernel.mli),
   O(threads * log stores) instead of the reference's O(stores + reads)
   rescan. *)
let min_readable t ~tid ~mo (ls : loc_state) =
  let ts = thread t tid in
  let floor =
    Rf_kernel.floor ls.rfk ~tid ~clock:ts.clock ~sc:(Memory_order.is_seq_cst mo)
      ~sc_fence_live:(t.sc_fence_live > 0) ~fences:sc_fences t.threads
  in
  let c = t.rfc in
  c.Rf_kernel.queries <- c.Rf_kernel.queries + 1;
  (* every unit of floor is one store excluded before replay *)
  c.Rf_kernel.rejected <- c.Rf_kernel.rejected + floor;
  floor

let read_candidates_of min_readable t ~tid ~mo ~loc =
  let ls = loc_state t loc in
  let n = Vec.length ls.stores in
  if n = 0 then []
  else begin
    let min_idx = min_readable t ~tid ~mo ls in
    (* newest-first *)
    let rec collect i acc = if i > n - 1 then acc else collect (i + 1) (Vec.get ls.stores i :: acc) in
    collect min_idx []
  end

let read_candidates t ~tid ~mo ~loc = read_candidates_of min_readable t ~tid ~mo ~loc
let read_candidates_ref t ~tid ~mo ~loc = read_candidates_of min_readable_ref t ~tid ~mo ~loc

(* Allocation-free variant for the hot load path: the candidate set is a
   contiguous mo-order suffix, so its size plus newest-first indexing
   replace the materialized list. [read_window] gives the count;
   candidate [i] of [read_candidate] is the [i]-th newest store. *)
let read_window t ~tid ~mo ~loc =
  match find_loc t loc with
  | None -> 0
  | Some ls ->
    let n = Vec.length ls.stores in
    if n = 0 then 0 else n - min_readable t ~tid ~mo ls

let read_candidate t ~loc i =
  let ls = loc_state t loc in
  Vec.get ls.stores (Vec.length ls.stores - 1 - i)

let rmw_candidate t ~loc =
  match find_loc t loc with
  | Some ls when not (Vec.is_empty ls.stores) -> Some (Vec.last ls.stores)
  | _ -> None

(* [mk_action] takes the already-looked-up [ts]: every commit kernel
   resolves its thread state exactly once and threads it through, so the
   bounds-checked (and potentially growing) [thread] lookup is off the
   per-action path. *)
let mk_action t ts ~tid ~kind ~loc ~mo ?read_value ?written_value ?rf ?site ~clock ~release_clock () =
  let seq = ts.seq + 1 in
  let a =
    {
      Action.id = num_actions t;
      tid;
      seq;
      kind;
      loc;
      mo;
      read_value;
      written_value;
      rf;
      site;
      clock;
      release_clock;
    }
  in
  ts.seq <- seq;
  ts.clock <- clock;
  Vec.push t.actions a;
  Vec.push t.mo_idx (-1);
  Vec.push ts.chain a.Action.id;
  Vec.push ts.fp_hist ts.fp_chain;
  (* fingerprint: per-thread chain element — everything the action is,
     with reads-from as the canonical (tid, seq) of the source write *)
  let h = h_int (h_int 0x5fe1 tid) seq in
  let h = h_int (h_int h (kind_tag kind)) (kind_payload kind) in
  let h = h_int (h_int h loc) (mo_tag mo) in
  let h = h_opt (h_opt h read_value) written_value in
  let h =
    match rf with
    | None -> h_int h (-3)
    | Some src ->
      let w = Vec.get t.actions src in
      h_int (h_int h w.Action.tid) w.Action.seq
  in
  let old = ts.fp_chain in
  let nw = h_step old h in
  ts.fp_chain <- nw;
  t.fp <- t.fp lxor old lxor nw;
  if Memory_order.is_seq_cst mo then begin
    let old = t.fp_sc in
    Vec.push t.fp_sc_hist old;
    let nw = h_int (h_int old tid) seq in
    t.fp_sc <- nw;
    t.fp <- t.fp lxor old lxor nw
  end;
  t.n_commits <- t.n_commits + 1;
  a

let[@inline] base_clock ts tid = Clock.set ts.clock tid (ts.seq + 1)

(* ------------------------------------------------------------------ *)
(* Monomorphic commit kernels                                          *)

(* The read and write halves of a committing action, specialized per
   memory-order class and shared between [commit_load]/[commit_rmw] and
   [commit_store]/[commit_rmw] respectively. The relaxed-class read
   kernel only feeds the pending-acquire accumulator (29.8p3); the
   acquire-class kernel additionally publishes the acquired clock into
   the reader's clock. Every kernel journals only on a physical change:
   with packed clocks a join that adds nothing returns (a value [==]
   to) its first operand, so spin-loop re-reads of the same store touch
   neither the journal nor the heap. *)

let[@inline] read_half_pending t ts tid acquired =
  let pending = Clock.join ts.pending_acquire acquired in
  if pending != ts.pending_acquire then begin
    Vec.push t.journal (J_pending (tid, ts.pending_acquire));
    ts.pending_acquire <- pending
  end

let[@inline] read_half_relaxed t ts tid base acquired =
  read_half_pending t ts tid acquired;
  base

let[@inline] read_half_acquire t ts tid base acquired =
  read_half_pending t ts tid acquired;
  Clock.join base acquired

(* Write half: the release clock carried by a new store — its own clock
   for release-class writes, the clock of the thread's newest release
   fence otherwise (29.8p4), [None] when neither applies. Reads straight
   off the hoisted thread state; no lookup, no allocation. *)
let[@inline] write_release_clock ts ~mo ~clock =
  if Memory_order.is_release mo then Some clock else ts.release_fence

let commit_load t ~tid ~mo ~loc ~rf ?site () =
  let ts = thread t tid in
  let ls = loc_state t loc in
  let base = base_clock ts tid in
  match rf with
  | None ->
    let a =
      mk_action t ts ~tid ~kind:Action.Load ~loc ~mo ~read_value:0 ?site ~clock:base
        ~release_clock:None ()
    in
    (a, Uninitialized_load a :: race_problems ls a)
  | Some (w : Action.t) ->
    let idx = store_index t w in
    let acquired = acquired_clock ls idx in
    let clock =
      if Memory_order.is_acquire mo then read_half_acquire t ts tid base acquired
      else read_half_relaxed t ts tid base acquired
    in
    let read_value = match w.written_value with Some v -> v | None -> 0 in
    let a =
      mk_action t ts ~tid ~kind:Action.Load ~loc ~mo ~read_value ~rf:w.id ?site ~clock
        ~release_clock:None ()
    in
    push_read ls a idx;
    let problems = race_problems ls a in
    let problems = if is_poison w then Uninitialized_load a :: problems else problems in
    (a, problems)

let commit_na_load t ~tid ~loc ?site () =
  let ts = thread t tid in
  let ls = loc_state t loc in
  let base = base_clock ts tid in
  let n = Vec.length ls.stores in
  if n = 0 then begin
    let a =
      mk_action t ts ~tid ~kind:Action.Na_load ~loc ~mo:Memory_order.Relaxed ~read_value:0 ?site
        ~clock:base ~release_clock:None ()
    in
    (a, Uninitialized_load a :: race_problems ls a)
  end
  else begin
    let w = Vec.last ls.stores in
    let read_value = match w.Action.written_value with Some v -> v | None -> 0 in
    let a =
      mk_action t ts ~tid ~kind:Action.Na_load ~loc ~mo:Memory_order.Relaxed ~read_value
        ~rf:w.Action.id ?site ~clock:base ~release_clock:None ()
    in
    Vec.push ls.na_reads a;
    let problems = race_problems ls a in
    let problems = if is_poison w then Uninitialized_load a :: problems else problems in
    (a, problems)
  end

let commit_store t ~tid ~mo ~loc ~value ?site () =
  let ts = thread t tid in
  let ls = loc_state t loc in
  let clock = base_clock ts tid in
  let release_clock = write_release_clock ts ~mo ~clock in
  let a =
    mk_action t ts ~tid ~kind:Action.Store ~loc ~mo ~written_value:value ?site ~clock ~release_clock ()
  in
  push_store t ls a;
  (a, race_problems ls a)

let commit_na_store t ~tid ~loc ~value ?site () =
  let ts = thread t tid in
  let ls = loc_state t loc in
  let clock = base_clock ts tid in
  let a =
    mk_action t ts ~tid ~kind:Action.Na_store ~loc ~mo:Memory_order.Relaxed ~written_value:value ?site
      ~clock ~release_clock:None ()
  in
  push_store t ls a;
  (a, race_problems ls a)

let commit_rmw t ~tid ~mo ~loc ~value ?site () =
  let ts = thread t tid in
  let ls = loc_state t loc in
  if Vec.is_empty ls.stores then begin
    (* uninitialized location: like an uninitialized load, the read half
       observes garbage (reported as a problem, value 0) — but the write
       half still happens, so the RMW commits with no reads-from edge
       instead of crashing the run *)
    let clock = base_clock ts tid in
    let release_clock = write_release_clock ts ~mo ~clock in
    let a =
      mk_action t ts ~tid ~kind:Action.Rmw ~loc ~mo ~read_value:0 ~written_value:value ?site ~clock
        ~release_clock ()
    in
    push_store t ls a;
    (a, Uninitialized_load a :: race_problems ls a)
  end
  else begin
    let w = Vec.last ls.stores in
    let idx = Vec.length ls.stores - 1 in
    let base = base_clock ts tid in
    let acquired = acquired_clock ls idx in
    let clock =
      if Memory_order.is_acquire mo then read_half_acquire t ts tid base acquired
      else read_half_relaxed t ts tid base acquired
    in
    let release_clock = write_release_clock ts ~mo ~clock in
    let read_value = match w.Action.written_value with Some v -> v | None -> 0 in
    let a =
      mk_action t ts ~tid ~kind:Action.Rmw ~loc ~mo ~read_value ~written_value:value
        ~rf:w.Action.id ?site ~clock ~release_clock ()
    in
    push_read ls a idx;
    push_store t ls a;
    let problems = race_problems ls a in
    let problems = if is_poison w then Uninitialized_load a :: problems else problems in
    (a, problems)
  end

let commit_fence t ~tid ~mo =
  let ts = thread t tid in
  let base = base_clock ts tid in
  let clock =
    if Memory_order.is_acquire mo then Clock.join base ts.pending_acquire else base
  in
  let a =
    mk_action t ts ~tid ~kind:Action.Fence ~loc:Action.no_loc ~mo ~clock ~release_clock:None ()
  in
  if Memory_order.is_release mo then begin
    Vec.push t.journal (J_release_fence (tid, ts.release_fence));
    ts.release_fence <- Some clock
  end;
  if Memory_order.is_seq_cst mo then begin
    ts.sc_fences <- (a.Action.seq, a.Action.id) :: ts.sc_fences;
    t.sc_fence_live <- t.sc_fence_live + 1
  end;
  a

let commit_create t ~tid ~child =
  let ts = thread t tid in
  let clock = base_clock ts tid in
  let a =
    mk_action t ts ~tid ~kind:(Action.Create child) ~loc:Action.no_loc ~mo:Memory_order.Relaxed ~clock
      ~release_clock:None ()
  in
  let child_ts = thread t child in
  Vec.push t.journal (J_inherited (child, child_ts.inherited));
  child_ts.inherited <- clock;
  a

let commit_start t ~tid =
  let ts = thread t tid in
  let clock = Clock.join (base_clock ts tid) ts.inherited in
  mk_action t ts ~tid ~kind:Action.Start ~loc:Action.no_loc ~mo:Memory_order.Relaxed ~clock
    ~release_clock:None ()

let commit_finish t ~tid =
  let ts = thread t tid in
  let clock = base_clock ts tid in
  mk_action t ts ~tid ~kind:Action.Finish ~loc:Action.no_loc ~mo:Memory_order.Relaxed ~clock
    ~release_clock:None ()

let commit_join t ~tid ~target =
  let ts = thread t tid in
  let target_clock = (thread t target).clock in
  let clock = Clock.join (base_clock ts tid) target_clock in
  mk_action t ts ~tid ~kind:(Action.Join target) ~loc:Action.no_loc ~mo:Memory_order.Relaxed ~clock
    ~release_clock:None ()

let commit_poison t ~tid ~loc =
  let ts = thread t tid in
  let ls = loc_state t loc in
  let clock = base_clock ts tid in
  let a =
    mk_action t ts ~tid ~kind:Action.Store ~loc ~mo:Memory_order.Relaxed ~site:"<alloc>" ~clock
      ~release_clock:None ()
  in
  push_store t ls a

let alloc t ~tid ~count ~init =
  let base = t.next_loc in
  Vec.push t.journal (J_next_loc base);
  t.next_loc <- t.next_loc + count;
  (match init with
  | None ->
    (* pristine malloc'd cells: a poison write per cell, so loads not
       forced past it observe uninitialized memory *)
    for i = 0 to count - 1 do
      commit_poison t ~tid ~loc:(base + i)
    done
  | Some v ->
    (* calloc-style zeroing: part of allocation, so it never races — model
       it as a relaxed atomic initialization *)
    for i = 0 to count - 1 do
      ignore (commit_store t ~tid ~mo:Memory_order.Relaxed ~loc:(base + i) ~value:v ~site:"<init>" ())
    done);
  base

(* ------------------------------------------------------------------ *)
(* Arena watermarks: mark / restore / copy                             *)

type mark = { m_nacts : int; m_jlen : int }

let mark t = { m_nacts = Vec.length t.actions; m_jlen = Vec.length t.journal }

(* Undo the newest committed action: pop every append-only structure it
   pushed and XOR the irreversible hash chains back using the recorded
   history values. Fields that commits overwrite (rather than append to)
   are restored separately by the journal walk in [restore]. *)
let undo_last t =
  let a = Vec.pop t.actions in
  ignore (Vec.pop t.mo_idx);
  let ts = t.threads.(a.Action.tid) in
  ignore (Vec.pop ts.chain);
  let prev_chain = Vec.pop ts.fp_hist in
  t.fp <- t.fp lxor ts.fp_chain lxor prev_chain;
  ts.fp_chain <- prev_chain;
  if Memory_order.is_seq_cst a.Action.mo then begin
    let prev_sc = Vec.pop t.fp_sc_hist in
    t.fp <- t.fp lxor t.fp_sc lxor prev_sc;
    t.fp_sc <- prev_sc
  end;
  ts.seq <- a.Action.seq - 1;
  ts.clock <-
    (if Vec.is_empty ts.chain then Clock.empty
     else (Vec.get t.actions (Vec.last ts.chain)).Action.clock);
  let undo_read ls =
    ignore (Vec.pop ls.reads);
    Rf_kernel.undo_read ls.rfk ~tid:a.Action.tid
  in
  let undo_store ls =
    ignore (Vec.pop ls.stores);
    Rf_kernel.undo_write ls.rfk ~tid:a.Action.tid ~sc:(Memory_order.is_seq_cst a.Action.mo);
    if a.Action.kind = Action.Na_store then ls.na_stores <- ls.na_stores - 1;
    ignore (Vec.pop ls.acq_memo);
    let prev_mo = Vec.pop ls.fp_mo_hist in
    t.fp <- t.fp lxor ls.fp_mo lxor prev_mo;
    ls.fp_mo <- prev_mo
  in
  match a.Action.kind with
  | Action.Load -> if a.Action.rf <> None then undo_read (loc_state t a.Action.loc)
  | Na_load ->
    if a.Action.rf <> None then ignore (Vec.pop (loc_state t a.Action.loc).na_reads)
  | Store | Na_store -> undo_store (loc_state t a.Action.loc)
  | Rmw ->
    (* [rf = None] is the uninitialized-RMW shape: only the write half
       was indexed on commit *)
    let ls = loc_state t a.Action.loc in
    if a.Action.rf <> None then undo_read ls;
    undo_store ls
  | Fence ->
    if Memory_order.is_seq_cst a.Action.mo then begin
      ts.sc_fences <- List.tl ts.sc_fences;
      t.sc_fence_live <- t.sc_fence_live - 1
    end
  | Create _ | Start | Finish | Join _ -> ()

let restore t m =
  while Vec.length t.actions > m.m_nacts do
    undo_last t
  done;
  while Vec.length t.journal > m.m_jlen do
    match Vec.pop t.journal with
    | J_pending (tid, c) -> t.threads.(tid).pending_acquire <- c
    | J_release_fence (tid, rf) -> t.threads.(tid).release_fence <- rf
    | J_inherited (tid, c) -> t.threads.(tid).inherited <- c
    | J_next_loc n -> t.next_loc <- n
  done

let copy t =
  let copy_ts ts =
    {
      clock = ts.clock;
      seq = ts.seq;
      pending_acquire = ts.pending_acquire;
      release_fence = ts.release_fence;
      sc_fences = ts.sc_fences;
      inherited = ts.inherited;
      fp_chain = ts.fp_chain;
      chain = Vec.copy ts.chain;
      fp_hist = Vec.copy ts.fp_hist;
    }
  in
  let copy_ls ls =
    {
      stores = Vec.copy ls.stores;
      reads = Vec.copy ls.reads;
      na_reads = Vec.copy ls.na_reads;
      rfk = Rf_kernel.copy_loc ls.rfk;
      na_stores = ls.na_stores;
      fp_mo = ls.fp_mo;
      fp_mo_hist = Vec.copy ls.fp_mo_hist;
      acq_memo = Vec.copy ls.acq_memo;
    }
  in
  let locs = Vec.create () in
  Vec.iter (fun ls -> Vec.push locs (Option.map copy_ls ls)) t.locs;
  {
    actions = Vec.copy t.actions;
    mo_idx = Vec.copy t.mo_idx;
    threads = Array.map copy_ts t.threads;
    locs;
    next_loc = t.next_loc;
    fp = t.fp;
    fp_sc = t.fp_sc;
    fp_sc_hist = Vec.copy t.fp_sc_hist;
    journal = Vec.copy t.journal;
    sc_fence_live = t.sc_fence_live;
    rfc = Rf_kernel.copy_counters t.rfc;
    n_commits = t.n_commits;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Vec.iter (fun a -> Format.fprintf ppf "%a@," Action.pp a) t.actions;
  Format.fprintf ppf "@]"
