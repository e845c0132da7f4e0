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

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable reused : int;
}

let meta_format = "cdsspec-store/1"

let meta_path dir = Filename.concat dir "meta"

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.map (Filename.concat dir)

(* Store files go through a bare fd, closed on every path: a channel
   brings a 64 KiB buffer per call, freed only at finalisation, and one
   left open by a failed read keeps its fd for good. [with_regular_file
   path f] is [f fd size] on the regular file at [path], or [None] when
   there is none (missing, a directory) or a read fails. The open never
   blocks: without [O_NONBLOCK], a FIFO at [path] would wait for a
   writer. *)
let with_regular_file path f =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (_, _, _) -> None
  | fd -> (
    let use () =
      match Unix.fstat fd with
      | { Unix.st_kind = Unix.S_REG; st_size = n; _ } -> f fd n
      | _ -> None
    in
    match Fun.protect ~finally:(fun () -> Unix.close fd) use with
    | s -> s
    | exception Unix.Unix_error (_, _, _) -> None)

(* The [n] bytes from [fd]'s offset, or [None] when the file is shorter
   (shrunk under the read). *)
let read_all fd n =
  let buf = Bytes.create n in
  let rec fill off =
    if off = n then Some (Bytes.unsafe_to_string buf)
    else match Unix.read fd buf off (n - off) with 0 -> None | k -> fill (off + k)
  in
  fill 0

let read_file path = with_regular_file path read_all

(* [buf]'s first [len] bytes equal [s]'s [len] bytes from [off],
   compared a word at a time. *)
let equal_chunk buf s off len =
  let rec words i =
    if i + 8 > len then bytes i
    else (Bytes.get_int64_ne buf i : int64) = String.get_int64_ne s (off + i) && words (i + 8)
  and bytes i = i >= len || (Bytes.get buf i = String.get s (off + i) && bytes (i + 1)) in
  words 0

(* [fd], from its offset on, holds [s]'s bytes, read through [buf]. The
   caller has checked the file's size. *)
let same_bytes fd buf s =
  let n = String.length s in
  let rec from off =
    off = n
    ||
    match Unix.read fd buf 0 (min (Bytes.length buf) (n - off)) with
    | 0 -> false
    | k -> equal_chunk buf s off k && from (off + k)
  in
  from 0

let tmp_counter = Atomic.make 0

(* Atomic write: entries must never be observed half-written (the serve
   daemon's workers and a concurrent CLI run may share a store dir).
   Each write goes through a temp file of its own — named by process,
   domain and a counter — so concurrent saves of one key never share
   one: each renames a complete file into place and the last rename
   wins. A failure raises [Sys_error "PATH: reason"], naming [path]
   whichever step failed, and leaves no temp file. *)
let write_file path content =
  let tmp =
    Printf.sprintf "%s.%d-%d-%d.tmp" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let sys_error e = Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)) in
  let fd =
    try
      Unix.openfile tmp
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_NONBLOCK; Unix.O_CLOEXEC ]
        0o666
    with Unix.Unix_error (e, _, _) -> raise (sys_error e)
  in
  try
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        ignore (Unix.write_substring fd content 0 (String.length content)));
    Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (match e with Unix.Unix_error (e, _, _) -> sys_error e | e -> e)

let flush_entries dir = List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) (entry_files dir)

(* ------------------------------------------------------------------ *)
(* Keys *)

type key = { descr : string; fp : string }

let fingerprint k = k.fp

(* [kind], [engine], [max_execs] and [use_cache] are accepted and
   ignored: there is one entry kind, one engine and one cache mode, and
   entries are cap-agnostic — the cap lives in the entry's [partial]
   field, so runs under different caps share one key and a
   clean-but-capped run can warm a later, smaller-capped one. *)
let job_key ~kind:`Check ~bench ~test ~ords ~sched ~prune ~engine:_ ~max_execs:_ ~checker
    ~use_cache:_ =
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
  add
    (match checker.Cdsspec.Checker.sample_histories with
    | None -> "none"
    | Some (count, seed) -> Printf.sprintf "%d:%d" count seed);
  add (string_of_bool checker.Cdsspec.Checker.strict_histories);
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
  witnesses : Mc.Explorer.witness list;
      (* the runs that reported the bugs of a complete buggy run, which a
         hit replays; [] for a clean run *)
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

(* A decision is its chosen index plus what the replay compares with
   the live point: a scheduling decision's candidate tids, a reads-from
   or CAS branch's arity. *)
let put_decision buf = function
  | Mc.Scheduler.Sched d ->
    put_int buf 0;
    put_int buf d.sched_chosen;
    put_int buf (Array.length d.candidates);
    Array.iter (put_int buf) d.candidates
  | Choice d ->
    put_int buf 1;
    put_int buf d.choice_chosen;
    put_int buf d.num

let get_decision r : Mc.Scheduler.decision =
  match get_int r with
  | 0 ->
    let sched_chosen = get_int r in
    let candidates = Array.of_list (get_list r get_int) in
    Sched { sched_chosen; candidates; state = None }
  | 1 ->
    let choice_chosen = get_int r in
    let num = get_int r in
    Choice { choice_chosen; num }
  | _ -> raise Corrupt

let put_witness buf (w : Mc.Explorer.witness) =
  put_int buf (List.length w.keys);
  List.iter (put_str buf) w.keys;
  put_int buf (Array.length w.path);
  Array.iter (put_decision buf) w.path

let get_witness r : Mc.Explorer.witness =
  let keys = get_list r get_str in
  let path = Array.of_list (get_list r get_decision) in
  { keys; path }

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
  put_int buf (List.length e.witnesses);
  List.iter (put_witness buf) e.witnesses;
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
  let witnesses = get_list r get_witness in
  if r.pos <> lim then raise Corrupt;
  { graphs; closed; check_entries; partial; witnesses }

(* ------------------------------------------------------------------ *)
(* Store handle and its resident table *)

(* The result of a hit that re-validated an entry and wrote nothing,
   with the [jobs] and [max_execs] it ran under. *)
type kept = { jobs : int; max_execs : int option; result : Mc.Explorer.result }

(* An entry kept in memory: the exact file bytes it was decoded from (or
   encoded to), the key description it was validated against, the
   decoded entry, its closed keys as the explorer's read-only warm
   table, and the result of its last clean re-validation in this
   process, if any. A lookup reuses it only when the file still holds
   [raw]. [kept] is read and written under the handle's lock. *)
type resident = {
  raw : string;
  descr : string;
  entry : entry;
  warm : (Mc.Scheduler.prune_key, unit) Hashtbl.t;
  mutable kept : kept option;
}

type t = {
  dir : string;
  stats : stats;
  lock : Mutex.t;
      (* guards [stats], [resident] (and each record's [kept]),
         [resident_bytes] and [chunks] *)
  resident : (string, resident) Hashtbl.t;  (* by entry fingerprint *)
  mutable resident_bytes : int;  (* sum of [String.length raw], <= [resident_cap] *)
  mutable chunks : Bytes.t list;  (* read buffers no lookup holds *)
}

(* One read of the in-place check: [Unix.read] moves at most this much
   per call. *)
let chunk_size = 65536

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
    stats = { hits = 0; misses = 0; corrupt = 0; reused = 0 };
    lock = Mutex.create ();
    resident = Hashtbl.create 64;
    resident_bytes = 0;
    chunks = [];
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
      let victims = ref [] and left = ref t.resident_bytes in
      (try
         Hashtbl.iter
           (fun victim v ->
             if !left + n <= resident_cap then raise Exit;
             victims := victim :: !victims;
             left := !left - String.length v.raw)
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
  { raw; descr = key.descr; entry; warm; kept = None }

(* A read buffer of the in-place check, held by one lookup at a time:
   [Unix.read] releases the runtime lock, so two threads of one domain
   must never fill the same one. The handle keeps the buffers no lookup
   holds, so a lookup allocates none once each concurrent caller has
   one. *)
let with_chunk t f =
  let buf =
    Mutex.protect t.lock (fun () ->
        match t.chunks with
        | b :: rest ->
          t.chunks <- rest;
          b
        | [] -> Bytes.create chunk_size)
  in
  Fun.protect ~finally:(fun () -> Mutex.protect t.lock (fun () -> t.chunks <- buf :: t.chunks))
    (fun () -> f buf)

(* What an entry path holds, against the resident bytes [raw]. *)
type contents = Absent | Resident | Changed of string

(* The file is compared with [raw] in place, through a chunk buffer,
   after a size check: most entries are larger than the largest block
   the minor heap takes (256 words), so a copy of the file would go
   straight to the major heap. The whole file is read only when there
   are no resident bytes or they differ. *)
let read_entry t path raw =
  let contents =
    with_regular_file path (fun fd n ->
        match raw with
        | Some raw when String.length raw = n && with_chunk t (fun buf -> same_bytes fd buf raw) ->
          Some Resident
        | _ ->
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          Option.map (fun s -> Changed s) (read_all fd n))
  in
  Option.value contents ~default:Absent

(* The one lookup path. The file is read on every call, so another
   process's rewrite, corruption or deletion of the entry is seen at
   once; decoding is skipped only when the file holds the resident
   copy's bytes. *)
let lookup t (key : key) =
  let path = entry_path t key in
  let locked f = Mutex.protect t.lock (fun () -> f t) in
  let cached =
    match locked (fun t -> Hashtbl.find_opt t.resident key.fp) with
    | Some r when String.equal r.descr key.descr -> Some r
    | _ -> None
  in
  match read_entry t path (Option.map (fun r -> r.raw) cached) with
  | Absent ->
    locked (fun t ->
        forget t key.fp;
        t.stats.misses <- t.stats.misses + 1);
    None
  | Resident ->
    locked (fun t -> t.stats.hits <- t.stats.hits + 1);
    cached
  | Changed raw -> (
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
      None)

let load t key = Option.map (fun r -> r.entry) (lookup t key)

let save t key e =
  let raw = encode key e in
  write_file (entry_path t key) raw;
  let r = resident_of key raw e in
  Mutex.protect t.lock (fun () -> remember t key.fp r)

(* ------------------------------------------------------------------ *)
(* Checked exploration through the store *)

let default_max_execs = Some 500_000

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

(* Drop an entry that [lookup] counted as a hit but that fails a later
   check: a miss plus a deletion, as a corrupt file is. *)
let discard t key =
  (try Sys.remove (entry_path t key) with Sys_error _ -> ());
  Mutex.protect t.lock (fun () ->
      forget t key.fp;
      t.stats.hits <- t.stats.hits - 1;
      t.stats.misses <- t.stats.misses + 1;
      t.stats.corrupt <- t.stats.corrupt + 1)

(* Replay one witness as exactly one run down its recorded path, frozen
   and with pruning off, through [Mc.Explorer.explore_subtree], which
   also runs {!Mc.Parallel}'s work items. [None] when the witness no
   longer replays: the run departs from the path, does not complete on
   exactly that path, or does not report the keys the witness recorded.
   The one-run cap marks the result truncated; that says nothing about
   the job, so it is cleared. *)
let replay ~config ~on_feasible program (w : Mc.Explorer.witness) =
  let trace = C11.Vec.create () in
  Array.iter (fun d -> C11.Vec.push trace (Mc.Explorer.copy_decision d)) w.path;
  let frozen = Array.length w.path in
  let config =
    { config with Mc.Explorer.max_executions = Some 1; progress = None; prune = false }
  in
  match Mc.Explorer.explore_subtree ~config ~on_feasible ~trace ~frozen program with
  | exception Mc.Scheduler.Diverged -> None
  | r ->
    let reported = List.map Mc.Bug.key r.bugs in
    if
      r.stats.feasible = 1
      && C11.Vec.length trace = frozen
      && List.for_all (fun k -> List.mem k reported) w.keys
    then Some { r with stats = { r.stats with truncated = false } }
    else None

(* Every witness of an entry, in order; [None] as soon as one no longer
   replays. [stop] is polled before each run, as the explorer polls it
   after each: once it holds, the rest are skipped, and the warm run
   that follows ends truncated at its first run. *)
let replay_all ?stop ~config ~on_feasible program witnesses =
  let stopped () = match stop with Some f -> f () | None -> false in
  let rec go acc = function
    | w :: rest when not (stopped ()) -> (
      match replay ~config ~on_feasible program w with
      | Some r -> go (r :: acc) rest
      | None -> None)
    | _ -> Some (List.rev acc)
  in
  go [] witnesses

(* The checked exploration proper, given the job's store handle and key
   ([keyed]) and the compatible entry [lookup] found ([found]): a cold
   run, or a hit that replays the entry's witnesses and re-validates it
   with a warm run. *)
let run_checked ?stop ?progress ~checker ~max_execs ~jobs ~prune ~t0 ~keyed ~found (b : B.t)
    ~ords (t : B.test) =
  let config =
    { Mc.Explorer.default_config with scheduler = b.scheduler; max_executions = max_execs; progress;
      prune }
  in
  let hook cache = Cdsspec.Checker.hook ~config:checker ~cache b.spec in
  let program = t.program ords in
  (* On a hit the entry's verdicts preload the check cache and its
     witnesses replay, one run each, before the warm run: the bugs and
     the first buggy execution are rebuilt by executions on this engine,
     never read from the file. An entry with a witness that no longer
     replays is discarded, and the job runs cold with nothing from it. *)
  let hit =
    match keyed, found with
    | Some (s, k), Some rs -> (
      let cache = Cdsspec.Checker.create_cache () in
      Cdsspec.Checker.import_entries cache rs.entry.check_entries;
      match replay_all ?stop ~config ~on_feasible:(hook cache) program rs.entry.witnesses with
      | Some replays -> Some (rs, cache, replays)
      | None ->
        discard s k;
        None)
    | _ -> None
  in
  let stored = Option.map (fun (rs, _, _) -> rs) hit in
  let cache =
    match hit with Some (_, cache, _) -> cache | None -> Cdsspec.Checker.create_cache ()
  in
  let verdicts_in = (Cdsspec.Checker.cache_counters cache).cache_entries in
  let warm = match stored with Some rs when prune -> Some rs.warm | _ -> None in
  let check () = Cdsspec.Checker.cache_counters cache in
  let r = Mc.Parallel.explore ~config ~on_feasible:(hook cache) ~check ?stop ?warm ~jobs program in
  (* The replays come first in DFS order: their bugs, in stored order,
     then any the warm run found that no witness gave. Their runs count
     in the hit's stats. *)
  let r =
    match hit with
    | Some (_, _, (_ :: _ as replays)) ->
      Mc.Parallel.merge ~t0 ~stopped:false ~check:r.stats.check (replays @ [ r ])
    | _ -> r
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
  let complete = not r.stats.truncated in
  let unchanged =
    match stored with Some rs -> rs.entry.partial = None && added_nothing | None -> false
  in
  (* Save pruning-on runs. Complete runs save, clean or buggy — including
     the upgrade of a previously-partial entry once a warm run finishes
     the job — unless the entry is already complete and the run added
     nothing to it, in which case the file is left untouched. A buggy
     entry carries the witnesses a hit replays. Clean-but-capped runs
     save under a [partial] flag keyed by the cap, but only when the
     truncation is known to come from the cap itself ([stop] runs are
     cancelled by a client, which looks identical in [truncated]), and
     never downgrading an entry that is already complete or already
     covers a larger cap. A buggy run that was capped or stopped never
     saves: there are no partial buggy entries. *)
  let save_error = ref None in
  (match keyed with
  | Some (s, k) when prune ->
    let cap_partial =
      match stop, max_execs with
      | None, Some n when (not complete) && r.bugs = [] -> Some n
      | _ -> None
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
    if (complete && not unchanged) || (cap_partial <> None && not covered) then begin
      (* A failed write loses the entry, not the verdict. *)
      try
        save s k
          {
            graphs = r.graphs;
            closed = r.closed;
            check_entries = Cdsspec.Checker.export_entries cache;
            partial = (if complete then None else cap_partial);
            witnesses = r.witnesses;
          }
      with Sys_error m -> save_error := Some m
    end
  | _ -> ());
  (* A hit that replayed every witness and ran its warm run to
     completion on a complete entry it added nothing to — the usual warm
     hit, which writes nothing — re-validated the entry's bytes: its
     result is kept on their resident record for {!explore_checked} to
     reuse. *)
  (match keyed, hit with
  | Some (s, _), Some (rs, _, replays)
    when unchanged && complete && List.compare_lengths replays rs.entry.witnesses = 0 ->
    Mutex.protect s.lock (fun () -> rs.kept <- Some { jobs; max_execs; result = r })
  | _ -> ());
  let disposition =
    match keyed, !save_error, stored with
    | None, _, _ -> `Off
    | Some _, Some m, _ -> `Save_failed m
    | Some _, None, Some _ -> `Hit
    | Some _, None, None -> `Miss
  in
  (r, disposition)

(* The result a re-validation kept on [rs], when it ran under [jobs] and
   [max_execs]; counted as a reuse. *)
let kept_result t rs ~jobs ~max_execs =
  Mutex.protect t.lock (fun () ->
      match rs.kept with
      | Some k when k.jobs = jobs && k.max_execs = max_execs ->
        t.stats.reused <- t.stats.reused + 1;
        Some k.result
      | _ -> None)

let explore_checked ?store ?stop ?progress ?engine:_ ?use_cache:_ ~checker ~max_execs ~jobs
    ~prune (b : B.t) ~ords (t : B.test) =
  let t0 = Mc.Monotonic.now () and g0 = Gc.minor_words () in
  let keyed =
    Option.map
      (fun s ->
        ( s,
          job_key ~kind:`Check ~bench:b.name ~test:t.test_name ~ords:(Ords.to_list ords)
            ~sched:b.scheduler ~prune ~engine:`Arena ~max_execs ~checker ~use_cache:true ))
      store
  in
  (* Partial entries are cap-scoped: a clean-but-capped run's closed
     keys are sound only for runs that stop at or before the same cap —
     a larger-capped (or uncapped) run would prune subtrees whose tails
     the stored run never reached. An incompatible entry is a miss. *)
  let found =
    match keyed with
    | None -> None
    | Some (s, k) -> (
      match lookup s k with
      | Some rs
        when match rs.entry.partial with
             | None -> false
             | Some cap -> ( match max_execs with Some n -> n > cap | None -> true) ->
        Mutex.protect s.lock (fun () ->
            s.stats.hits <- s.stats.hits - 1;
            s.stats.misses <- s.stats.misses + 1);
        None
      | found -> found)
  in
  (* The file still holds bytes this process has re-validated under the
     same [jobs] and [max_execs]: the program, engine and checker are
     this process's, and the key fixes everything else the run reads, so
     running it again could only compute the kept result again. Only
     [time] and [minor_words] are this call's. *)
  let kept =
    match keyed, found with
    | Some (s, _), Some rs -> kept_result s rs ~jobs ~max_execs
    | _ -> None
  in
  match kept with
  | Some r ->
    let time = Mc.Monotonic.now () -. t0 and minor_words = Gc.minor_words () -. g0 in
    ({ r with stats = { r.stats with time; minor_words } }, `Hit)
  | None ->
    run_checked ?stop ?progress ~checker ~max_execs ~jobs ~prune ~t0 ~keyed ~found b ~ords t
