module B = Structures.Benchmark
module Ords = Structures.Ords

(* ------------------------------------------------------------------ *)
(* FNV-1a — the repo's standard content fingerprint *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Hash of the first [len] bytes of [s], in place. The state is a local
   ref updated in a loop, which the compiler keeps unboxed: no substring
   copy, no closure, no boxed [Int64] per byte. *)
let fnv64_prefix s len =
  let h = ref fnv_offset in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let fnv64 s = fnv64_prefix s (String.length s)

let hex64 h = Printf.sprintf "%016Lx" h

(* ------------------------------------------------------------------ *)
(* Store files *)

type stats = { mutable hits : int; mutable misses : int; mutable corrupt : int }

let meta_format = "cdsspec-store/1"

let meta_path dir = Filename.concat dir "meta"

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.map (Filename.concat dir)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ | End_of_file -> None

let tmp_counter = Atomic.make 0

(* Atomic write: entries must never be observed half-written (the serve
   daemon's workers and a concurrent CLI run may share a store dir).
   Each write goes through a temp file of its own — named by process,
   domain and a counter — so concurrent saves of one key never share
   one: each renames a complete file into place and the last rename
   wins. *)
let write_file path content =
  let tmp =
    Printf.sprintf "%s.%d-%d-%d.tmp" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  try
    output_string oc content;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let flush_entries dir = List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) (entry_files dir)

(* ------------------------------------------------------------------ *)
(* Keys *)

type key = { descr : string; fp : string }

let fingerprint k = k.fp

(* [kind] and [max_execs] are accepted and ignored: there is one entry
   kind, and entries are cap-agnostic — the cap lives in the entry's
   [partial] field, so runs under different caps share one key and a
   clean-but-capped run can warm a later, smaller-capped one. *)
let job_key ~kind:`Check ~bench ~test ~ords ~sched ~prune ~engine ~max_execs:_
    ~checker ~use_cache =
  let buf = Buffer.create 256 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\x1f'
  in
  add bench;
  add test;
  List.iter
    (fun (site, order) ->
      add site;
      add (C11.Memory_order.to_string order))
    ords;
  add (string_of_int sched.Mc.Scheduler.loop_bound);
  add (string_of_int sched.Mc.Scheduler.max_actions);
  add (string_of_bool sched.Mc.Scheduler.sleep_sets);
  add (string_of_bool prune);
  add (match engine with `Arena -> "arena" | `Legacy -> "legacy");
  add (string_of_int checker.Cdsspec.Checker.max_histories);
  add
    (match checker.Cdsspec.Checker.sample_histories with
    | None -> "none"
    | Some (count, seed) -> Printf.sprintf "%d:%d" count seed);
  add (string_of_int checker.Cdsspec.Checker.max_prefixes);
  add (string_of_bool checker.Cdsspec.Checker.strict_histories);
  add (string_of_bool use_cache);
  let descr = Buffer.contents buf in
  { descr; fp = hex64 (fnv64 descr) }

(* ------------------------------------------------------------------ *)
(* Entry codec *)

type entry = {
  graphs : int64 list;
  closed : Mc.Scheduler.prune_key list;
  check_entries : Cdsspec.Checker.cache_entry list;
  partial : int option;
      (* None: the run explored to completion. Some cap: a clean run
         truncated by max_execs = cap — its closed keys and graphs are
         sound but incomplete, usable to warm runs capped at <= cap. *)
}

let magic = "CDSS1"

exception Corrupt

(* Little-endian 64-bit words throughout. *)
let put_i64 = Buffer.add_int64_le

let put_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let put_bool buf v = Buffer.add_char buf (if v then '\x01' else '\x00')

let put_str buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_i64_list buf l =
  put_int buf (List.length l);
  List.iter (put_i64 buf) l

(* Reads stop at [lim], the start of the trailing hash, so the body is
   decoded in place. *)
type reader = { src : string; mutable pos : int; lim : int }

let need r n = if n > r.lim - r.pos then raise Corrupt

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  if v < 0 then raise Corrupt;
  v

let get_bool r =
  need r 1;
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  match c with '\x00' -> false | '\x01' -> true | _ -> raise Corrupt

let get_str r =
  let n = get_int r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Length-prefixed lists bound-check the count before allocating: a
   corrupt count must fail cleanly, not OOM. *)
let get_list r f =
  let n = get_int r in
  if n > r.lim then raise Corrupt;
  List.init n (fun _ -> f r)

let get_i64_list r = get_list r get_i64

let violation_kind_tag = function
  | `Admissibility -> 0
  | `Assertion -> 1
  | `Unjustified -> 2
  | `Cyclic_ordering -> 3
  | `Truncated -> 4

let violation_kind_of_tag = function
  | 0 -> `Admissibility
  | 1 -> `Assertion
  | 2 -> `Unjustified
  | 3 -> `Cyclic_ordering
  | 4 -> `Truncated
  | _ -> raise Corrupt

let put_violation buf (v : Cdsspec.Checker.violation) =
  put_int buf (violation_kind_tag v.kind);
  put_str buf v.message

let get_violation r : Cdsspec.Checker.violation =
  let kind = violation_kind_of_tag (get_int r) in
  let message = get_str r in
  { kind; message }

let put_prune_key buf (k : Mc.Scheduler.prune_key) =
  put_i64 buf k.fp;
  put_int buf (List.length k.sleeping);
  List.iter (put_int buf) k.sleeping;
  put_int buf k.nacts

let get_prune_key r : Mc.Scheduler.prune_key =
  let fp = get_i64 r in
  let sleeping = get_list r get_int in
  let nacts = get_int r in
  { fp; sleeping; nacts }

let put_check_entry buf (e : Cdsspec.Checker.cache_entry) =
  put_str buf e.entry_key;
  put_int buf (List.length e.entry_verdict);
  List.iter (put_violation buf) e.entry_verdict;
  put_bool buf e.entry_h_trunc;
  put_bool buf e.entry_p_trunc

let get_check_entry r : Cdsspec.Checker.cache_entry =
  let entry_key = get_str r in
  let entry_verdict = get_list r get_violation in
  let entry_h_trunc = get_bool r in
  let entry_p_trunc = get_bool r in
  { entry_key; entry_verdict; entry_h_trunc; entry_p_trunc }

let encode (key : key) e =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  (* Key-string echo: two jobs colliding on the 64-bit fingerprint must
     read each other's entries as misses, not as wrong answers. *)
  put_str buf key.descr;
  put_i64_list buf e.graphs;
  put_int buf (List.length e.closed);
  List.iter (put_prune_key buf) e.closed;
  put_int buf (List.length e.check_entries);
  List.iter (put_check_entry buf) e.check_entries;
  (match e.partial with
  | None -> put_bool buf false
  | Some cap ->
    put_bool buf true;
    put_int buf cap);
  put_i64 buf (fnv64 (Buffer.contents buf));
  Buffer.contents buf

let decode (key : key) s =
  let n = String.length s in
  if n < String.length magic + 8 then raise Corrupt;
  let lim = n - 8 in
  if String.get_int64_le s lim <> fnv64_prefix s lim then raise Corrupt;
  if not (String.starts_with ~prefix:magic s) then raise Corrupt;
  let r = { src = s; pos = String.length magic; lim } in
  let descr = get_str r in
  if descr <> key.descr then raise Corrupt;
  let graphs = get_i64_list r in
  let closed = get_list r get_prune_key in
  let check_entries = get_list r get_check_entry in
  let partial = if get_bool r then Some (get_int r) else None in
  if r.pos <> lim then raise Corrupt;
  { graphs; closed; check_entries; partial }

(* ------------------------------------------------------------------ *)
(* Store handle and its resident table *)

(* An entry kept in memory: the exact file bytes it was decoded from (or
   encoded to), the key description it was validated against, the
   decoded entry, and its closed keys as the explorer's read-only warm
   table. A lookup reuses it only when the file still holds [raw]. *)
type resident = {
  raw : string;
  descr : string;
  entry : entry;
  warm : (Mc.Scheduler.prune_key, unit) Hashtbl.t;
}

type t = {
  dir : string;
  stats : stats;
  lock : Mutex.t;  (* guards [stats], [resident] and [resident_bytes] *)
  resident : (string, resident) Hashtbl.t;  (* by entry fingerprint *)
  mutable resident_bytes : int;  (* sum of [String.length raw], <= [resident_cap] *)
}

(* Raw bytes the resident table may hold. The registry's check entries
   total about 1 MiB; decoded, an entry takes several times its raw
   size. *)
let resident_cap = 16 * 1024 * 1024

let dir t = t.dir

let resident_bytes t = Mutex.protect t.lock (fun () -> t.resident_bytes)

let stats t = t.stats

let open_dir dirname =
  if not (Sys.file_exists dirname) then Sys.mkdir dirname 0o755;
  let expected = Printf.sprintf "%s\n%s\n" meta_format Mc.Engine_rev.current in
  (match read_file (meta_path dirname) with
  | Some m when m = expected -> ()
  | _ ->
    (* Missing, malformed, or another engine revision: flush wholesale.
       Coarse and safe — one cold rebuild, never a stale verdict. *)
    flush_entries dirname;
    write_file (meta_path dirname) expected);
  {
    dir = dirname;
    stats = { hits = 0; misses = 0; corrupt = 0 };
    lock = Mutex.create ();
    resident = Hashtbl.create 64;
    resident_bytes = 0;
  }

let entry_path t key = Filename.concat t.dir (key.fp ^ ".bin")

(* The resident-table operations below run under [t.lock]. *)

let forget t fp =
  match Hashtbl.find_opt t.resident fp with
  | Some r ->
    Hashtbl.remove t.resident fp;
    t.resident_bytes <- t.resident_bytes - String.length r.raw
  | None -> ()

(* Replace [fp]'s resident copy with [r], evicting other entries (in
   table order) until it fits under the cap. An entry larger than the
   cap is never resident. *)
let remember t fp r =
  forget t fp;
  let n = String.length r.raw in
  if n <= resident_cap then begin
    if t.resident_bytes + n > resident_cap then begin
      let victims = ref [] and kept = ref t.resident_bytes in
      (try
         Hashtbl.iter
           (fun victim v ->
             if !kept + n <= resident_cap then raise Exit;
             victims := victim :: !victims;
             kept := !kept - String.length v.raw)
           t.resident
       with Exit -> ());
      List.iter (forget t) !victims
    end;
    Hashtbl.replace t.resident fp r;
    t.resident_bytes <- t.resident_bytes + n
  end

let resident_of (key : key) raw entry =
  let warm = Hashtbl.create (max 16 (List.length entry.closed)) in
  List.iter (fun k -> Hashtbl.replace warm k ()) entry.closed;
  { raw; descr = key.descr; entry; warm }

(* The one lookup path. The file is re-read on every call, so another
   process's rewrite, corruption or deletion of the entry is seen at
   once; decoding is skipped only when the bytes equal the resident
   copy's. *)
let lookup t (key : key) =
  let path = entry_path t key in
  let locked f = Mutex.protect t.lock (fun () -> f t) in
  match read_file path with
  | None ->
    locked (fun t ->
        forget t key.fp;
        t.stats.misses <- t.stats.misses + 1);
    None
  | Some raw -> (
    let cached = locked (fun t -> Hashtbl.find_opt t.resident key.fp) in
    match cached with
    | Some r when String.equal r.raw raw && String.equal r.descr key.descr ->
      locked (fun t -> t.stats.hits <- t.stats.hits + 1);
      Some r
    | _ -> (
      match decode key raw with
      | entry ->
        let r = resident_of key raw entry in
        locked (fun t ->
            remember t key.fp r;
            t.stats.hits <- t.stats.hits + 1);
        Some r
      | exception Corrupt ->
        (* Discard, never trust: a bad entry is a miss plus a deletion. *)
        (try Sys.remove path with Sys_error _ -> ());
        locked (fun t ->
            forget t key.fp;
            t.stats.corrupt <- t.stats.corrupt + 1;
            t.stats.misses <- t.stats.misses + 1);
        None))

let load t key = Option.map (fun r -> r.entry) (lookup t key)

let save t key e =
  let raw = encode key e in
  write_file (entry_path t key) raw;
  let r = resident_of key raw e in
  Mutex.protect t.lock (fun () -> remember t key.fp r)

(* ------------------------------------------------------------------ *)
(* Checked exploration through the store *)

let union_closed a b =
  let h : (Mc.Scheduler.prune_key, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace h k ()) a;
  List.iter (fun k -> Hashtbl.replace h k ()) b;
  Hashtbl.fold (fun k () acc -> k :: acc) h []

(* [sorted_subset a b]: every element of [a] is in [b]; both ascending. *)
let rec sorted_subset a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = Int64.compare x y in
    if c = 0 then sorted_subset a' b' else if c > 0 then sorted_subset a b' else false

let explore_checked ?store ?stop ?progress ~checker ~use_cache ~max_execs ~jobs ~prune ~engine
    (b : B.t) ~ords (t : B.test) =
  let cache = Cdsspec.Checker.create_cache ~memoize:use_cache () in
  let key =
    Option.map
      (fun _ ->
        job_key ~kind:`Check ~bench:b.name ~test:t.test_name ~ords:(Ords.to_list ords)
          ~sched:b.scheduler ~prune ~engine ~max_execs ~checker ~use_cache)
      store
  in
  let stored =
    match store, key with Some s, Some k -> lookup s k | _ -> None
  in
  (* Partial entries are cap-scoped: a clean-but-capped run's closed
     keys are sound only for runs that stop at or before the same cap —
     a larger-capped (or uncapped) run would prune subtrees whose tails
     the stored run never reached. An incompatible entry is a miss. *)
  let stored =
    match stored, store with
    | Some rs, Some s
      when (match rs.entry.partial with
           | None -> false
           | Some cap -> ( match max_execs with Some n -> n > cap | None -> true)) ->
      Mutex.protect s.lock (fun () ->
          s.stats.hits <- s.stats.hits - 1;
          s.stats.misses <- s.stats.misses + 1);
      None
    | _ -> stored
  in
  (match stored with
  | Some rs -> Cdsspec.Checker.import_entries cache rs.entry.check_entries
  | None -> ());
  let verdicts_in = (Cdsspec.Checker.cache_counters cache).cache_entries in
  let warm = match stored with Some rs when prune -> Some rs.warm | _ -> None in
  let config =
    {
      Mc.Explorer.scheduler = b.scheduler;
      max_executions = max_execs;
      progress;
      prune;
      engine;
    }
  in
  let on_feasible = Cdsspec.Checker.hook ~config:checker ~cache b.spec in
  let check () = Cdsspec.Checker.cache_counters cache in
  let program = t.program ords in
  let r =
    match stop with
    | Some stop ->
      (* Cancellable path (the serve daemon): serial, polled per run. *)
      Mc.Explorer.explore_subtree ~config ~on_feasible ~check ~stop ?warm
        ~trace:(C11.Vec.create ()) ~frozen:0 program
    | None -> Mc.Parallel.explore ~config ~on_feasible ~check ?warm ~jobs program
  in
  (* A warm run only re-discovers graphs reachable without entering a
     closed subtree; the stored set is the rest. The union equals the
     cold run's graph set exactly. When the run found nothing the entry
     lacks — the common warm hit — the stored lists already are that
     union and are returned as they are. *)
  let added_nothing =
    match stored with
    | None -> false
    | Some rs ->
      sorted_subset r.graphs rs.entry.graphs
      && List.for_all (fun k -> Hashtbl.mem rs.warm k) r.closed
      && (Cdsspec.Checker.cache_counters cache).cache_entries = verdicts_in
  in
  let r =
    match stored with
    | None -> r
    | Some { entry = e; _ } ->
      let graphs, closed =
        if added_nothing then (e.graphs, e.closed)
        else
          ( List.sort_uniq Int64.compare (List.rev_append e.graphs r.graphs),
            union_closed e.closed r.closed )
      in
      { r with graphs; closed; stats = { r.stats with distinct_graphs = List.length graphs } }
  in
  (* Save clean, pruning-on runs. Complete runs save — including the
     upgrade of a previously-partial entry once a warm run finishes the
     job — unless the entry is already complete and the run added
     nothing to it, in which case the file is left untouched.
     Clean-but-capped runs save under a [partial] flag keyed by the cap,
     but only when the truncation is known to come from the cap itself
     ([stop] runs are cancelled by a client, which looks identical in
     [truncated]), and never downgrading an entry that is already
     complete or already covers a larger cap. Buggy runs never save:
     bugs would need serializing to reproduce the verdict from a hit. *)
  (match store, key with
  | Some s, Some k when prune && r.bugs = [] ->
    let complete = not r.stats.truncated in
    let cap_partial =
      match stop, max_execs with None, Some n when not complete -> Some n | _ -> None
    in
    let covered =
      match stored with
      | Some rs -> (
        match rs.entry.partial, cap_partial with
        | None, _ -> true (* already complete: never downgrade *)
        | Some c, Some n -> c >= n
        | Some _, None -> false)
      | None -> false
    in
    let unchanged =
      match stored with Some rs -> rs.entry.partial = None && added_nothing | None -> false
    in
    if (complete && not unchanged) || (cap_partial <> None && not covered) then
      save s k
        {
          graphs = r.graphs;
          closed = r.closed;
          check_entries = Cdsspec.Checker.export_entries cache;
          partial = (if complete then None else cap_partial);
        }
  | _ -> ());
  let disposition =
    match store with None -> `Off | Some _ -> ( match stored with Some _ -> `Hit | None -> `Miss)
  in
  (r, disposition)
