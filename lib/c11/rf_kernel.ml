(* Incremental reads-from consistency kernel.

   The per-location saturation state of the Tunç-style rf-consistency
   check, maintained on every [Execution] commit: per-(location, thread)
   write/read coherence orders (parallel monotone (seq, mo index)
   columns) plus the per-location SC-store order. Every rule of the
   "smallest readable modification-order index" query reduces to "the
   newest entry of thread [u]'s column with seq below a bound", one
   binary search per column. *)

type lt = {
  w_seq : int Vec.t;  (* seqs of this thread's writes here, ascending *)
  w_idx : int Vec.t;  (* their mo indices, ascending in lockstep *)
  r_seq : int Vec.t;  (* seqs of this thread's atomic reads here *)
  r_idx : int Vec.t;  (* the mo indices those reads observed *)
}

type loc = {
  mutable per_tid : lt option array;  (* grown on demand *)
  sc_ids : int Vec.t;  (* commit ids of seq_cst stores, increasing *)
  sc_idx : int Vec.t;  (* their mo indices, increasing *)
}

(* Pre-replay rejection statistics, shared across a whole execution
   arena (one record per [Execution.t]): [queries] counts candidate
   floor computations and [rejected] the total number of stores
   excluded before replay — each floor of [k] rejects the [k] oldest
   stores a full rescan would have had to re-filter or a naive
   enumerator would have replayed into. *)
type counters = { mutable queries : int; mutable rejected : int }

let counters_create () = { queries = 0; rejected = 0 }

let loc_create () = { per_tid = [||]; sc_ids = Vec.create (); sc_idx = Vec.create () }

let lt_create () = { w_seq = Vec.create (); w_idx = Vec.create (); r_seq = Vec.create (); r_idx = Vec.create () }

let loc_tid k tid =
  let n = Array.length k.per_tid in
  if tid >= n then begin
    let arr = Array.make (tid + 4) None in
    Array.blit k.per_tid 0 arr 0 n;
    k.per_tid <- arr
  end;
  match k.per_tid.(tid) with
  | Some tl -> tl
  | None ->
    let tl = lt_create () in
    k.per_tid.(tid) <- Some tl;
    tl

let on_write k ~tid ~seq ~id ~idx ~sc =
  let tl = loc_tid k tid in
  Vec.push tl.w_seq seq;
  Vec.push tl.w_idx idx;
  if sc then begin
    Vec.push k.sc_ids id;
    Vec.push k.sc_idx idx
  end

let on_read k ~tid ~seq ~idx =
  let tl = loc_tid k tid in
  Vec.push tl.r_seq seq;
  Vec.push tl.r_idx idx

let undo_write k ~tid ~sc =
  let tl = loc_tid k tid in
  ignore (Vec.pop tl.w_seq);
  ignore (Vec.pop tl.w_idx);
  if sc then begin
    ignore (Vec.pop k.sc_ids);
    ignore (Vec.pop k.sc_idx)
  end

let undo_read k ~tid =
  let tl = loc_tid k tid in
  ignore (Vec.pop tl.r_seq);
  ignore (Vec.pop tl.r_idx)

(* Largest index [j] with [v.(j) <= x] in an ascending vector, or -1. *)
let bsearch_le (v : int Vec.t) x =
  let lo = ref 0 and hi = ref (Vec.length v) in
  (* invariant: v.(lo-1) <= x < v.(hi) *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Vec.get v mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* [floor] raised to the index paired with the newest entry of the
   (keys, idxs) column whose key is at most [bound]. The floor is
   threaded through as an argument, never a captured ref: a local
   helper closing over one would allocate on every query. *)
let raise_le keys idxs bound floor =
  let j = bsearch_le keys bound in
  if j >= 0 then Int.max floor (Vec.get idxs j) else floor

(* Seq of the newest fence in [fences] (newest first) whose commit id
   is below [id], or 0 when there is none. *)
let rec fence_seq_before fences id =
  match fences with
  | [] -> 0
  | (seq, fid) :: rest -> if fid < id then seq else fence_seq_before rest id

(* The 29.3p5–p7 rules, on top of the coherence floor [floor]. Per
   thread, seq and commit id grow together along its fence list, so the
   newest fence with a commit id below the reader's fence also has the
   largest seq. *)
let fence_floor k ~tid ~sc ~fences x floor =
  let floor = ref floor in
  let reader_fence = match fences x tid with (_, id) :: _ -> id | [] -> -1 in
  (* 29.3p5: a seq_cst fence sequenced before the load reads at least
     the newest seq_cst store committed before that fence *)
  if reader_fence >= 0 then floor := raise_le k.sc_ids k.sc_idx (reader_fence - 1) !floor;
  for u = 0 to Array.length k.per_tid - 1 do
    match k.per_tid.(u) with
    | None -> ()
    | Some tl ->
      let fs = fences x u in
      (* 29.3p6: seq_cst load; the newest store of [u] sequenced before
         [u]'s newest seq_cst fence *)
      (if sc then
         match fs with
         | (fence_seq, _) :: _ -> floor := raise_le tl.w_seq tl.w_idx (fence_seq - 1) !floor
         | [] -> ());
      (* 29.3p7 (fence-to-fence): a store before fence X of [u], X
         before the reader's fence *)
      if reader_fence >= 0 then begin
        let fence_seq = fence_seq_before fs reader_fence in
        if fence_seq > 0 then floor := raise_le tl.w_seq tl.w_idx (fence_seq - 1) !floor
      end
  done;
  !floor

let floor k ~tid ~clock ~sc ~sc_fence_live ~fences x =
  (* 29.3p3: a seq_cst load reads at least the newest seq_cst store *)
  let floor = ref (if sc then Vec.last_or k.sc_idx 0 else 0) in
  (* CoWR/CoRW + CoRR: per thread, the newest hb-visible write and the
     newest mo index observed by an hb-visible read *)
  for u = 0 to Array.length k.per_tid - 1 do
    match k.per_tid.(u) with
    | None -> ()
    | Some tl ->
      let bound = Clock.get clock u in
      if bound > 0 then
        floor := raise_le tl.r_seq tl.r_idx bound (raise_le tl.w_seq tl.w_idx bound !floor)
  done;
  if sc_fence_live then fence_floor k ~tid ~sc ~fences x !floor else !floor

let copy_lt tl =
  { w_seq = Vec.copy tl.w_seq; w_idx = Vec.copy tl.w_idx; r_seq = Vec.copy tl.r_seq; r_idx = Vec.copy tl.r_idx }

let copy_loc k =
  { per_tid = Array.map (Option.map copy_lt) k.per_tid; sc_ids = Vec.copy k.sc_ids; sc_idx = Vec.copy k.sc_idx }

let copy_counters (c : counters) = { queries = c.queries; rejected = c.rejected }
