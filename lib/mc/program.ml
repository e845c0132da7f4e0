type loc = int

type mo = C11.Memory_order.t

type annotation =
  | Method_begin of { name : string; args : int list; obj : int }
  | Method_end of { ret : int option }
  | Op_define
  | Op_clear
  | Op_clear_define
  | Potential_op of string
  | Op_check of string

type op =
  | Load of { mo : mo; loc : loc; site : string option }
  | Await of { mo : mo; loc : loc; until : int -> bool; site : string option }
  | Store of { mo : mo; loc : loc; value : int; site : string option }
  | Cas of { mo : mo; fail_mo : mo; loc : loc; expected : int; desired : int; site : string option }
  | Fetch_add of { mo : mo; loc : loc; delta : int; site : string option }
  | Exchange of { mo : mo; loc : loc; value : int; site : string option }
  | Fence of { mo : mo }
  | Na_load of { loc : loc; site : string option }
  | Na_store of { loc : loc; value : int; site : string option }
  | Alloc of { count : int; init : int option }
  | Spawn of (unit -> unit)
  | Join of int
  | Annotate of annotation
  | Check of { cond : bool; message : string }

type _ Effect.t += Do : op -> int Effect.t

(* Fast paths around the effect machinery. The scheduler installs a
   per-domain dispatcher with two tiers:

   - [hook]: a general hook consulted before performing {!Do} — it
     commits invisible operations (allocation, spawn, non-atomic
     accesses, annotations, checks) without suspending the fiber, since
     none of them is a scheduling point. It returns [None] for every
     visible operation, which performs the effect: the fiber pauses and
     the scheduler commits the operation when it next steps the thread.
   - [rp_*]: the restore-replay value feed. While a snapshot restore
     re-runs a thread's closure, every operation's result is the next
     entry of its logged value stream; the wrappers below consume it
     directly — no [op] record is built, no option is allocated, no
     closure is entered. The feed is positional, so op payloads are
     irrelevant except for [Spawn], which must also re-register the
     child's closure via [rp_spawn] (fibers are rebuilt from scratch
     after a restore). [rp_limit = 0] (the default) disables the tier;
     a thread's feed runs out exactly at the operation it was paused at
     when the snapshot was taken, and that operation then performs the
     effect as usual.

   Replay cost is the hot floor of the arena engine (every explored
   execution replays a whole program prefix), which is why the feed is
   flattened into the dispatcher rather than routed through [hook]. *)
type dispatcher = {
  mutable hook : (op -> int option) option;
  mutable rp_vals : int array;
  mutable rp_next : int;
  mutable rp_limit : int;
  mutable rp_spawn : int -> (unit -> unit) -> unit;
}

let dispatch : dispatcher Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        hook = None;
        rp_vals = [||];
        rp_next = 0;
        rp_limit = 0;
        rp_spawn = (fun _ _ -> invalid_arg "Program: replay feed active with no rp_spawn");
      })

(* Guarded by the callers' [rp_next < rp_limit] check; [rp_limit] never
   exceeds the feed array's length. *)
let[@inline] rp_take d =
  let v = Array.unsafe_get d.rp_vals d.rp_next in
  d.rp_next <- d.rp_next + 1;
  v

let[@inline] slow_op d op =
  match d.hook with
  | Some f -> ( match f op with Some v -> v | None -> Effect.perform (Do op))
  | None -> Effect.perform (Do op)

let do_op op =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then rp_take d else slow_op d op

let load ?site mo loc =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then rp_take d else slow_op d (Load { mo; loc; site })

(* The scheduler only hands an await a value [until] accepts, except
   when it reads uninitialized memory (0, reported as an uninitialized
   load); re-issuing then keeps the spin's semantics: wait again, within
   the loop bound. *)
let rec await ?site mo loc ~until =
  let d = Domain.DLS.get dispatch in
  let v = if d.rp_next < d.rp_limit then rp_take d else slow_op d (Await { mo; loc; until; site }) in
  if until v then v else await ?site mo loc ~until

let store ?site mo loc value =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then ignore (rp_take d)
  else ignore (slow_op d (Store { mo; loc; value; site }))

(* C11 requires the failure order of a CAS to be no stronger than the
   success order and not a release order; this is the strongest legal
   default. *)
let default_fail_mo (mo : mo) : mo =
  match mo with
  | Relaxed | Release -> Relaxed
  | Acquire | Acq_rel -> Acquire
  | Seq_cst -> Seq_cst

let cas_val ?site ?fail_mo mo loc ~expected ~desired =
  let fail_mo = match fail_mo with Some f -> f | None -> default_fail_mo mo in
  let d = Domain.DLS.get dispatch in
  let observed =
    if d.rp_next < d.rp_limit then rp_take d
    else slow_op d (Cas { mo; fail_mo; loc; expected; desired; site })
  in
  (observed = expected, observed)

let cas ?site ?fail_mo mo loc ~expected ~desired =
  fst (cas_val ?site ?fail_mo mo loc ~expected ~desired)

let fetch_add ?site mo loc delta =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then rp_take d else slow_op d (Fetch_add { mo; loc; delta; site })

let exchange ?site mo loc value =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then rp_take d else slow_op d (Exchange { mo; loc; value; site })

let fence mo = ignore (do_op (Fence { mo }))

let na_load ?site loc =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then rp_take d else slow_op d (Na_load { loc; site })

let na_store ?site loc value =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then ignore (rp_take d)
  else ignore (slow_op d (Na_store { loc; value; site }))

let malloc ?init count = do_op (Alloc { count; init })

let spawn f =
  let d = Domain.DLS.get dispatch in
  if d.rp_next < d.rp_limit then begin
    (* replayed Spawn: consume the child's tid from the feed and
       re-register its closure — the parent's replay is what rebuilds
       children after a restore *)
    let child = rp_take d in
    d.rp_spawn child f;
    child
  end
  else slow_op d (Spawn f)

let join tid = ignore (do_op (Join tid))

let check cond message = ignore (do_op (Check { cond; message }))

let annotate a = ignore (do_op (Annotate a))
