(* PR-7 tests for the persistent cross-run result store.

   The store soundness contract: a warm re-run of an identical job must
   report exactly the cold run's verdicts — same distinct-graph set,
   same deduplicated bug keys, same first buggy trace — in serial and
   under [-j2]; and the store must treat anything suspicious (corrupt
   entry, truncated file, foreign engine revision) as a miss plus a
   deletion, never as an answer. *)

module E = Mc.Explorer
module B = Structures.Benchmark
module Ords = Structures.Ords

(* The first buggy execution's action log, as [check -v] prints it. *)
let render = Format.asprintf "%a" C11.Execution.pp

let cap = 30_000

(* Fresh scratch directory per call, under the test sandbox cwd. *)
let scratch_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_dir () =
  incr scratch_counter;
  let d = Printf.sprintf "store-scratch-%d" !scratch_counter in
  rm_rf d;
  d

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.map (Filename.concat dir)

let checker = Cdsspec.Checker.default_config

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let inode path = (Unix.stat path).Unix.st_ino

let treiber () =
  match Structures.Registry.find "Treiber Stack" with
  | Some b -> b
  | None -> Alcotest.fail "Treiber Stack registered"

let run ?store ~jobs ~prune (b : B.t) ~ords (t : B.test) =
  Store.explore_checked ?store ~checker ~max_execs:(Some cap) ~jobs ~prune b ~ords t

let keys (r : E.result) = List.map Mc.Bug.key r.bugs

let messages (r : E.result) = List.map (Format.asprintf "%a" Mc.Bug.pp) r.bugs

let check_semantics ~where (cold : E.result) (warm : E.result) =
  Alcotest.(check bool) (where ^ ": graph sets identical") true (cold.graphs = warm.graphs);
  Alcotest.(check int)
    (where ^ ": distinct graphs")
    cold.stats.distinct_graphs warm.stats.distinct_graphs;
  Alcotest.(check (list string)) (where ^ ": bug keys") (keys cold) (keys warm);
  Alcotest.(check (list string)) (where ^ ": bug messages") (messages cold) (messages warm);
  Alcotest.(check (option string))
    (where ^ ": first buggy trace")
    (Option.map render cold.first_buggy_exec) (Option.map render warm.first_buggy_exec)

let entry_path dir key = Filename.concat dir (Store.fingerprint key ^ ".bin")

let check_key (b : B.t) (t : B.test) ~ords =
  Store.job_key ~kind:`Check ~bench:b.name ~test:t.test_name ~ords:(Ords.to_list ords)
    ~sched:b.scheduler ~prune:true ~engine:`Arena ~max_execs:(Some cap) ~checker ~use_cache:true

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let default_key ?(kind = `Check) ?(test = "t") ?(prune = true) ?(max_execs = Some cap)
    ?(sched = Mc.Scheduler.default_config) ords =
  Store.job_key ~kind ~bench:"bench" ~test ~ords ~sched ~prune ~engine:`Arena ~max_execs ~checker
    ~use_cache:true

let test_fingerprint_stability () =
  let ords = [ ("a", C11.Memory_order.Seq_cst); ("b", C11.Memory_order.Acquire) ] in
  Alcotest.(check string)
    "same key, same fingerprint"
    (Store.fingerprint (default_key ords))
    (Store.fingerprint (default_key ords));
  let base = Store.fingerprint (default_key ords) in
  let differs what k =
    Alcotest.(check bool) (what ^ " changes the fingerprint") false (Store.fingerprint k = base)
  in
  differs "test name" (default_key ~test:"other" ords);
  differs "ords table" (default_key [ ("a", C11.Memory_order.Relaxed); ("b", C11.Memory_order.Acquire) ]);
  differs "prune flag" (default_key ~prune:false ords);
  (* check keys are cap-agnostic (the cap lives in the entry's partial
     flag) *)
  Alcotest.(check string) "check keys ignore max_executions" base
    (Store.fingerprint (default_key ~max_execs:None ords))

(* ------------------------------------------------------------------ *)
(* Entry roundtrip *)

let sample_entry =
  {
    Store.graphs = [ 3L; 17L; Int64.min_int ];
    closed =
      [
        { Mc.Scheduler.fp = 42L; sleeping = [ 1; 3 ]; nacts = 7 };
        { Mc.Scheduler.fp = -9L; sleeping = []; nacts = 0 };
      ];
    check_entries =
      [
        {
          Cdsspec.Checker.entry_key = "k1";
          entry_verdict =
            [
              { Cdsspec.Checker.kind = `Admissibility; message = "m1" };
              { Cdsspec.Checker.kind = `Unjustified; message = "m2 with \n newline" };
            ];
          entry_h_trunc = true;
          entry_p_trunc = false;
        };
      ];
    partial = Some 321;
    witnesses =
      [
        {
          Mc.Explorer.keys = [ "race:k" ];
          path =
            [|
              Mc.Scheduler.Sched { sched_chosen = 1; candidates = [| 0; 2 |]; state = None };
              Mc.Scheduler.Choice { choice_chosen = 2; num = 3 };
            |];
        };
      ];
  }

let test_entry_roundtrip () =
  let dir = scratch_dir () in
  let s = Store.open_dir dir in
  let key = default_key [ ("a", C11.Memory_order.Seq_cst) ] in
  let entry = sample_entry in
  Store.save s key entry;
  (match Store.load s key with
  | None -> Alcotest.fail "saved entry loads"
  | Some e ->
    Alcotest.(check bool) "graphs roundtrip" true (e.Store.graphs = entry.Store.graphs);
    Alcotest.(check bool) "closed roundtrip" true (e.Store.closed = entry.Store.closed);
    Alcotest.(check bool) "check entries roundtrip" true
      (e.Store.check_entries = entry.Store.check_entries);
    Alcotest.(check bool) "partial roundtrip" true (e.Store.partial = entry.Store.partial);
    Alcotest.(check bool) "witnesses roundtrip" true (e.Store.witnesses = entry.Store.witnesses));
  (* a different key never reads someone else's entry *)
  let other = default_key ~test:"other" [ ("a", C11.Memory_order.Seq_cst) ] in
  Alcotest.(check bool) "foreign key misses" true (Store.load s other = None);
  rm_rf dir

(* The on-disk bytes of [sample_entry] under a fixed key, its witness
   section (one scheduling and one reads-from decision) last: any change
   that moves a byte must come with an engine-rev bump. *)
let golden_hex =
  String.concat ""
    [
      "43445353313800000000000000676f6c64656e1f741f611f7365715f6373741f";
      "621f72656c617865641f321f3330301f747275651f747275651f6e6f6e651f66";
      "616c73651f030000000000000003000000000000001100000000000000000000";
      "000000008002000000000000002a000000000000000200000000000000010000";
      "000000000003000000000000000700000000000000f7ffffffffffffff000000";
      "00000000000000000000000000010000000000000002000000000000006b3102";
      "00000000000000000000000000000002000000000000006d3102000000000000";
      "0011000000000000006d322077697468200a206e65776c696e65010001410100";
      "0000000000010000000000000001000000000000000600000000000000726163";
      "653a6b0200000000000000000000000000000001000000000000000200000000";
      "0000000000000000000000020000000000000001000000000000000200000000";
      "000000030000000000000044ce04f34def0c9c";
    ]

let test_encode_golden () =
  let dir = scratch_dir () in
  let s = Store.open_dir dir in
  (* every key field spelled out, so a change of defaults cannot move
     the bytes *)
  let sched = { Mc.Scheduler.loop_bound = 2; max_actions = 300; sleep_sets = true } in
  let checker = { Cdsspec.Checker.sample_histories = None; strict_histories = false } in
  let key =
    Store.job_key ~kind:`Check ~bench:"golden" ~test:"t"
      ~ords:[ ("a", C11.Memory_order.Seq_cst); ("b", C11.Memory_order.Relaxed) ]
      ~sched ~prune:true ~engine:`Arena ~max_execs:None ~checker ~use_cache:true
  in
  Alcotest.(check string) "golden key fingerprint" "4cd4e7f05ca4374a" (Store.fingerprint key);
  Store.save s key sample_entry;
  let raw = read_bytes (Filename.concat dir (Store.fingerprint key ^ ".bin")) in
  let hex =
    String.to_seq raw
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat ""
  in
  Alcotest.(check string) "encoded bytes" golden_hex hex;
  Alcotest.(check bool) "golden bytes decode" true (Store.load (Store.open_dir dir) key = Some sample_entry);
  rm_rf dir

let test_check_cache_roundtrip () =
  let cache = Cdsspec.Checker.create_cache () in
  Alcotest.(check int) "fresh cache exports nothing" 0
    (List.length (Cdsspec.Checker.export_entries cache));
  let entries =
    [
      {
        Cdsspec.Checker.entry_key = "alpha";
        entry_verdict = [];
        entry_h_trunc = false;
        entry_p_trunc = false;
      };
      {
        Cdsspec.Checker.entry_key = "beta";
        entry_verdict = [ { Cdsspec.Checker.kind = `Assertion; message = "boom" } ];
        entry_h_trunc = false;
        entry_p_trunc = true;
      };
    ]
  in
  Cdsspec.Checker.import_entries cache entries;
  let exported =
    List.sort compare (Cdsspec.Checker.export_entries cache)
  in
  Alcotest.(check bool) "import/export roundtrip" true (exported = List.sort compare entries);
  let c = Cdsspec.Checker.cache_counters cache in
  Alcotest.(check int) "imports are not hits" 0 c.Mc.Explorer.cache_hits;
  Alcotest.(check int) "imports are not misses" 0 c.Mc.Explorer.cache_misses;
  Alcotest.(check int) "imports land in the table" 2 c.Mc.Explorer.cache_entries

(* ------------------------------------------------------------------ *)
(* Cold/warm differential over the registry *)

let test_registry_differential () =
  let dir = scratch_dir () in
  let gated = ref 0 in
  List.iter
    (fun (b : B.t) ->
      let ords = Ords.default b.B.sites in
      let t = List.hd b.B.tests in
      let where = b.B.name ^ "/" ^ t.B.test_name in
      let store = Store.open_dir dir in
      let cold, d0 = run ~store ~jobs:1 ~prune:true b ~ords t in
      Alcotest.(check bool) (where ^ ": first run is cold") true (d0 = `Miss);
      if not cold.stats.truncated then begin
        incr gated;
        (* serial warm *)
        let warm, d1 = run ~store ~jobs:1 ~prune:true b ~ords t in
        Alcotest.(check bool) (where ^ ": second run is warm") true (d1 = `Hit);
        check_semantics ~where:(where ^ " (serial)") cold warm;
        (if cold.bugs = [] then
           Alcotest.(check bool)
             (where ^ ": warm run collapses")
             true
             (warm.stats.explored < max 2 cold.stats.explored));
        (* parallel warm: same closed keys shared read-only across domains *)
        let warm2, d2 = run ~store ~jobs:2 ~prune:true b ~ords t in
        Alcotest.(check bool) (where ^ ": -j2 run is warm") true (d2 = `Hit);
        check_semantics ~where:(where ^ " (-j2)") cold warm2
      end)
    Structures.Registry.exhaustive;
  Alcotest.(check bool)
    (Printf.sprintf "differential not vacuous (%d structures gated)" !gated)
    true (!gated >= 10);
  rm_rf dir

(* A complete buggy run saves one witness per bug, and a hit replays
   them: serial cold, then serial and [-j2] warm hits with the cold
   run's bug keys, messages, first buggy execution and graph set, in
   fewer runs. The serial hit leaves the entry file alone. *)
let buggy_differential ~where (b : B.t) ~ords (t : B.test) =
  let dir = scratch_dir () in
  let store = Store.open_dir dir in
  let cold, d0 = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) (where ^ ": cold run misses") true (d0 = `Miss);
  Alcotest.(check bool) (where ^ ": cold run is buggy") true (cold.bugs <> []);
  Alcotest.(check bool) (where ^ ": cold run completes") false cold.stats.truncated;
  Alcotest.(check bool) (where ^ ": one witness per run that added a key") true
    (List.concat_map (fun (w : E.witness) -> w.keys) cold.witnesses = keys cold);
  let path = entry_path dir (check_key b t ~ords) in
  let ino = inode path and bytes = read_bytes path in
  List.iter
    (fun jobs ->
      let where = Printf.sprintf "%s -j%d warm" where jobs in
      let warm, d = run ~store ~jobs ~prune:true b ~ords t in
      Alcotest.(check bool) (where ^ ": hit") true (d = `Hit);
      check_semantics ~where cold warm;
      Alcotest.(check bool) (where ^ ": not truncated") false warm.stats.truncated;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d runs, fewer than the cold %d" where warm.stats.explored
           cold.stats.explored)
        true
        (warm.stats.explored < cold.stats.explored);
      if jobs = 1 then begin
        Alcotest.(check bool) (where ^ ": same inode") true (inode path = ino);
        Alcotest.(check bool) (where ^ ": same bytes") true (read_bytes path = bytes)
      end)
    [ 1; 2 ];
  rm_rf dir

let find_bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.failf "%s registered" name

let find_test (b : B.t) name =
  match List.find_opt (fun (t : B.test) -> t.B.test_name = name) b.B.tests with
  | Some t -> t
  | None -> Alcotest.failf "%s/%s registered" b.B.name name

(* The known bugs of M&S Queue and Bounded Queue, on every unit test
   that exposes them. *)
let test_known_bugs_differential () =
  let gated = ref 0 in
  List.iter
    (fun (name, known) ->
      let b = find_bench name in
      List.iter
        (fun (site, ords) ->
          List.iter
            (fun (t : B.test) ->
              let plain, _ = run ~jobs:1 ~prune:true b ~ords t in
              if plain.bugs <> [] && not plain.stats.truncated then begin
                incr gated;
                buggy_differential ~where:(Printf.sprintf "%s/%s@%s" name t.B.test_name site) b
                  ~ords t
              end)
            b.B.tests)
        known)
    [
      ("M&S Queue", Structures.Ms_queue.known_bugs);
      ("Bounded Queue", Structures.Bounded_queue.known_bugs);
    ];
  Alcotest.(check bool) (Printf.sprintf "%d buggy tests gated" !gated) true (!gated >= 4)

(* The published weakenings the serve benchmark sends, each on the test
   that exposes it. *)
let test_weakenings_differential () =
  List.iter
    (fun (name, test, site) ->
      let b = find_bench name in
      let ords = Ords.with_order b.B.sites site C11.Memory_order.Relaxed in
      buggy_differential ~where:(Printf.sprintf "%s/%s@%s=relaxed" name test site) b ~ords
        (find_test b test))
    [
      ("M&S Queue", "1enq-1deq", "enq_cas_next");
      ("M&S Queue", "1enq-1deq", "deq_load_next");
      ("Bounded Queue", "1push-1pop", "push_cas_next");
      ("Bounded Queue", "1push-1pop", "pop_load_next");
      ("Chase-Lev Deque", "resize-race", "resize_store_array");
    ]

(* Every Figure 8 injection that is detected, on its detecting test:
   each weakenable site of the paper's ten structures, weakened one
   step, on the first unit test whose run reports a bug, under the
   figure's cap. *)
let fig8_benches =
  [
    "Chase-Lev Deque";
    "SPSC Queue";
    "RCU";
    "Lockfree Hashtable";
    "MCS Lock";
    "MPMC Queue";
    "M&S Queue";
    "Linux RW Lock";
    "Seqlock";
    "Ticket Lock";
  ]

let test_fig8_differential () =
  let fig8_cap = Some 150_000 in
  let detected = ref 0 in
  List.iter
    (fun name ->
      let b = find_bench name in
      List.iter
        (fun (site : Ords.site) ->
          let ords = Option.get (Ords.weakened b.B.sites site.name) in
          let detecting =
            List.find_opt
              (fun (t : B.test) ->
                let r, _ =
                  Store.explore_checked ~checker ~max_execs:fig8_cap ~jobs:1 ~prune:true b ~ords t
                in
                r.bugs <> [])
              b.B.tests
          in
          match detecting with
          | Some t ->
            incr detected;
            buggy_differential ~where:(Printf.sprintf "%s/%s@%s" name t.B.test_name site.name) b
              ~ords t
          | None -> ())
        (Ords.weakenable b.B.sites))
    fig8_benches;
  (* bench/fig8.expected: 43 of the 57 injections are detected *)
  Alcotest.(check int) "detected injections" 43 !detected

(* A witness that no longer replays is a miss, never an answer: the
   entry is deleted and counted corrupt, the job runs cold, and its
   verdict is the store-less one. Each doctored entry is saved under
   the job's real key. *)
let test_doctored_witness () =
  let b = find_bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Ords.with_order b.B.sites "enq_cas_next" C11.Memory_order.Relaxed in
  let plain, _ = run ~jobs:1 ~prune:true b ~ords t in
  let dir = scratch_dir () in
  let store = Store.open_dir dir in
  let key = check_key b t ~ords in
  ignore (run ~store ~jobs:1 ~prune:true b ~ords t);
  let entry = Option.get (Store.load store key) in
  let w = List.hd entry.witnesses in
  let n = Array.length w.path in
  let bump = function
    | Mc.Scheduler.Sched d ->
      Mc.Scheduler.Sched { d with candidates = Array.append d.candidates [| 9 |] }
    | Choice d -> Choice { d with num = d.num + 1 }
  in
  let doctored =
    [
      ("an arity changed", { w with path = Array.mapi (fun i d -> if i = n - 1 then bump d else d) w.path });
      ("a decision dropped", { w with path = Array.sub w.path 0 (n - 1) });
      ("a decision added", { w with path = Array.append w.path [| w.path.(n - 1) |] });
      ( "a chosen index out of range",
        {
          w with
          path =
            Array.map
              (function
                | Mc.Scheduler.Choice d -> Mc.Scheduler.Choice { d with choice_chosen = d.num }
                | d -> d)
              w.path;
        } );
      ("another key", { w with keys = [ "race:no such key" ] });
    ]
  in
  (* Odd cases read the doctored entry through another handle, which
     decodes it; even ones through the handle that saved it, which holds
     it resident. *)
  List.iteri
    (fun i (what, w) ->
      Store.save store key { entry with witnesses = [ w ] };
      let reader = if i mod 2 = 0 then store else Store.open_dir dir in
      let corrupt = (Store.stats reader).corrupt in
      let r, d = run ~store:reader ~jobs:1 ~prune:true b ~ords t in
      Alcotest.(check bool) (what ^ ": a miss") true (d = `Miss);
      Alcotest.(check int) (what ^ ": counted corrupt") (corrupt + 1) (Store.stats reader).corrupt;
      check_semantics ~where:what plain r;
      Alcotest.(check bool) (what ^ ": the cold run saved afresh") true
        (match Store.load reader key with Some e -> e = entry | None -> false))
    doctored;
  rm_rf dir

(* A buggy run stopped by its cap saves nothing: there are no partial
   buggy entries. *)
let test_capped_buggy_not_saved () =
  let b = find_bench "M&S Queue" in
  let t = find_test b "1enq-1deq" in
  let ords = Ords.with_order b.B.sites "enq_cas_next" C11.Memory_order.Relaxed in
  let full, _ = run ~jobs:1 ~prune:true b ~ords t in
  let dir = scratch_dir () in
  let store = Store.open_dir dir in
  let r, d =
    Store.explore_checked ~store ~checker ~max_execs:(Some (full.stats.explored - 1)) ~jobs:1
      ~prune:true b ~ords t
  in
  Alcotest.(check bool) "capped run misses" true (d = `Miss);
  Alcotest.(check bool) "capped run truncates" true r.stats.truncated;
  Alcotest.(check bool) "capped run is buggy" true (r.bugs <> []);
  Alcotest.(check (list string)) "no entry saved" [] (entry_files dir);
  rm_rf dir

(* A cold [-j2] store still warms a serial re-run: under work stealing
   the frozen/donated levels are never closed, so the stored set is a
   subset of the serial one — the warm run re-explores the difference
   and the union of graphs is unchanged. *)
let test_parallel_cold_store () =
  let dir = scratch_dir () in
  let b =
    match Structures.Registry.find "Treiber Stack" with
    | Some b -> b
    | None -> Alcotest.fail "Treiber Stack registered"
  in
  let ords = Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let store = Store.open_dir dir in
  let cold, d0 = run ~store ~jobs:2 ~prune:true b ~ords t in
  Alcotest.(check bool) "cold -j2 misses" true (d0 = `Miss);
  let warm, d1 = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) "serial re-run hits" true (d1 = `Hit);
  check_semantics ~where:"-j2 cold, serial warm" cold warm;
  rm_rf dir

(* A clean run truncated by its execution cap persists a partial entry
   scoped by that cap. Same-or-smaller caps warm from it (identical bug
   verdicts; the warm graphs cover the cold ones — a warm run may
   legitimately out-explore the capped cold run), larger caps are
   treated as misses, and the first run to explore to completion
   upgrades the entry in place, after which every cap hits and the
   graphs equal the uncapped reference. *)
let test_partial_capped_runs () =
  let dir = scratch_dir () in
  let b =
    match Structures.Registry.find "Treiber Stack" with
    | Some b -> b
    | None -> Alcotest.fail "Treiber Stack registered"
  in
  let ords = Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let runc ?store max_execs =
    Store.explore_checked ?store ~checker ~max_execs ~jobs:1 ~prune:true b ~ords t
  in
  (* uncapped storeless reference *)
  let reference, _ = runc None in
  Alcotest.(check bool) "reference is clean" true (reference.bugs = []);
  Alcotest.(check bool) "reference completes" true (not reference.stats.truncated);
  let total = reference.stats.explored in
  Alcotest.(check bool) "structure big enough to cap" true (total >= 8);
  let small = total / 4 and mid = total / 2 in
  let store = Store.open_dir dir in
  let cold, d0 = runc ~store (Some small) in
  Alcotest.(check bool) "capped cold misses" true (d0 = `Miss);
  Alcotest.(check bool) "capped cold truncates" true cold.stats.truncated;
  Alcotest.(check bool) "capped cold is clean" true (cold.bugs = []);
  Alcotest.(check bool) "partial entry persisted" true (entry_files dir <> []);
  (* same cap warms: verdict identity, graph coverage *)
  let warm, d1 = runc ~store (Some small) in
  Alcotest.(check bool) "same-cap run warms" true (d1 = `Hit);
  Alcotest.(check (list string)) "same-cap warm bug keys" (keys cold) (keys warm);
  Alcotest.(check bool) "warm graphs cover cold graphs" true
    (List.for_all (fun g -> List.mem g warm.graphs) cold.graphs);
  (* smaller cap is still compatible *)
  let _, d2 = runc ~store (Some (max 1 (small - 1))) in
  Alcotest.(check bool) "smaller-cap run warms" true (d2 = `Hit);
  (* larger cap: the stored partial cannot vouch for it *)
  let coldm, d3 = runc ~store (Some mid) in
  Alcotest.(check bool) "larger-cap run misses" true (d3 = `Miss);
  Alcotest.(check bool) "larger-cap cold truncates" true coldm.stats.truncated;
  (* uncapped run: miss again, completes, upgrades the entry in place *)
  let full, d4 = runc ~store None in
  Alcotest.(check bool) "uncapped run misses the partial entry" true (d4 = `Miss);
  Alcotest.(check bool) "uncapped run completes" true (not full.stats.truncated);
  Alcotest.(check bool) "uncapped graphs match reference" true
    (full.graphs = reference.graphs);
  (* after the upgrade every cap warms and reports the full graph set *)
  let warm_full, d5 = runc ~store None in
  Alcotest.(check bool) "uncapped re-run warms" true (d5 = `Hit);
  check_semantics ~where:"complete entry, uncapped warm" reference warm_full;
  let warm_capped, d6 = runc ~store (Some small) in
  Alcotest.(check bool) "capped run warms off the complete entry" true (d6 = `Hit);
  Alcotest.(check bool) "capped warm reports the full graph set" true
    (warm_capped.graphs = reference.graphs);
  (* the capped warm run must not have downgraded the complete entry *)
  let _, d7 = runc ~store None in
  Alcotest.(check bool) "complete entry survives capped warm runs" true (d7 = `Hit);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Corruption and invalidation *)

let test_corrupt_entry_discarded () =
  let dir = scratch_dir () in
  let b =
    match Structures.Registry.find "Treiber Stack" with
    | Some b -> b
    | None -> Alcotest.fail "Treiber Stack registered"
  in
  let ords = Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let store = Store.open_dir dir in
  let cold, _ = run ~store ~jobs:1 ~prune:true b ~ords t in
  let files = entry_files dir in
  Alcotest.(check bool) "cold run wrote an entry" true (files <> []);
  (* flip one byte in the middle of every entry *)
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = Bytes.of_string (really_input_string ic n) in
      close_in ic;
      let i = n / 2 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0xFF));
      let oc = open_out_bin path in
      output_bytes oc s;
      close_out oc)
    files;
  let store = Store.open_dir dir in
  let r, d = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) "corrupt entry reads as a miss" true (d = `Miss);
  Alcotest.(check bool) "corruption was counted" true ((Store.stats store).corrupt > 0);
  check_semantics ~where:"after corruption" cold r;
  (* truncated file: cut an entry in half *)
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic (n / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc)
    (entry_files dir);
  let store = Store.open_dir dir in
  let r, d = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) "truncated entry reads as a miss" true (d = `Miss);
  check_semantics ~where:"after truncation" cold r;
  rm_rf dir

let test_engine_rev_flush () =
  let dir = scratch_dir () in
  let s = Store.open_dir dir in
  let key = default_key [ ("a", C11.Memory_order.Seq_cst) ] in
  Store.save s key
    {
      Store.graphs = [ 1L ];
      closed = [];
      check_entries = [];
      partial = None;
      witnesses = [];
    };
  Alcotest.(check bool) "entry exists" true (entry_files dir <> []);
  (* same rev: reopening keeps entries *)
  let s = Store.open_dir dir in
  Alcotest.(check bool) "same-rev reopen keeps entries" true (Store.load s key <> None);
  (* forge a meta from another engine revision *)
  let oc = open_out_bin (Filename.concat dir "meta") in
  output_string oc "cdsspec-store/1\nsome-other-engine/0\n";
  close_out oc;
  let s = Store.open_dir dir in
  Alcotest.(check bool) "rev mismatch flushes every entry" true (entry_files dir = []);
  Alcotest.(check bool) "flushed entry misses" true (Store.load s key = None);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Resident entries and writes *)

(* A directory where a key's entry file belongs reads as a miss every
   time, and each failed read closes the descriptor it opened: an
   unclosed one is never closed by the GC either. *)
let test_directory_entry () =
  let dir = scratch_dir () in
  let s = Store.open_dir dir in
  let key = default_key [ ("a", C11.Memory_order.Seq_cst) ] in
  Sys.mkdir (entry_path dir key) 0o755;
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for i = 1 to 100 do
    Alcotest.(check bool) (Printf.sprintf "load %d misses" i) true (Store.load s key = None)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "no descriptor left open" before (open_fds ());
  Alcotest.(check int) "every load a miss" 100 (Store.stats s).misses;
  rm_rf dir

(* A save that fails keeps the verdict: with a directory at the entry
   path the clean run's result comes back as the store-less run's, and
   the failure names the path. No temp file is left behind. *)
let test_failed_save_keeps_verdict () =
  let dir = scratch_dir () in
  let b = treiber () in
  let ords = Ords.default b.B.sites in
  let t = List.find (fun (t : B.test) -> t.B.test_name = "2push-2pop") b.B.tests in
  let store = Store.open_dir dir in
  let path = entry_path dir (check_key b t ~ords) in
  Sys.mkdir path 0o755;
  let plain, _ = run ~jobs:1 ~prune:true b ~ords t in
  let r, d = run ~store ~jobs:1 ~prune:true b ~ords t in
  check_semantics ~where:"failed save" plain r;
  Alcotest.(check (list string)) "clean verdict" [] (keys r);
  (match d with
  | `Save_failed m ->
    Alcotest.(check bool) ("the failure names the path: " ^ m) true
      (String.starts_with ~prefix:(path ^ ": ") m)
  | _ -> Alcotest.fail "a directory at the entry path must fail the save");
  Alcotest.(check (list string))
    "no temp file left" []
    (List.filter (fun f -> Filename.check_suffix f ".tmp") (Array.to_list (Sys.readdir dir)));
  rm_rf dir

(* A warm hit that adds nothing to a complete entry leaves the file
   alone: same inode, same bytes. *)
let test_warm_hit_no_rewrite () =
  let dir = scratch_dir () in
  let b = treiber () in
  let ords = Ords.default b.B.sites in
  let store = Store.open_dir dir in
  List.iter
    (fun (t : B.test) ->
      let where = b.B.name ^ "/" ^ t.B.test_name in
      let path = entry_path dir (check_key b t ~ords) in
      let cold, d0 = run ~store ~jobs:1 ~prune:true b ~ords t in
      Alcotest.(check bool) (where ^ ": cold miss") true (d0 = `Miss);
      Alcotest.(check bool) (where ^ ": cold run completes") false cold.stats.truncated;
      let ino = inode path and bytes = read_bytes path in
      for round = 1 to 2 do
        let warm, d = run ~store ~jobs:1 ~prune:true b ~ords t in
        let where = Printf.sprintf "%s warm %d" where round in
        Alcotest.(check bool) (where ^ ": hit") true (d = `Hit);
        check_semantics ~where cold warm;
        Alcotest.(check bool) (where ^ ": same inode") true (inode path = ino);
        Alcotest.(check bool) (where ^ ": same bytes") true (read_bytes path = bytes)
      done)
    b.B.tests;
  rm_rf dir

(* A hit on a partial entry that explores to completion still upgrades
   the entry in place: the file is rewritten, complete. *)
let test_partial_upgrade_rewrites () =
  let dir = scratch_dir () in
  let b = treiber () in
  let ords = Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let key = check_key b t ~ords in
  let path = entry_path dir key in
  let store = Store.open_dir dir in
  let cold, _ = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) "cold run completes" false cold.stats.truncated;
  (* mark the complete entry partial under a cap the next run stays within *)
  let e = Option.get (Store.load store key) in
  Store.save store key { e with partial = Some cap };
  let ino = inode path and bytes = read_bytes path in
  let warm, d = run ~store ~jobs:1 ~prune:true b ~ords t in
  Alcotest.(check bool) "partial entry hits" true (d = `Hit);
  Alcotest.(check bool) "warm run completes" false warm.stats.truncated;
  check_semantics ~where:"upgrade" cold warm;
  Alcotest.(check bool) "entry rewritten" true (inode path <> ino || read_bytes path <> bytes);
  (match Store.load (Store.open_dir dir) key with
  | Some e -> Alcotest.(check bool) "entry is complete" true (e.partial = None)
  | None -> Alcotest.fail "upgraded entry loads");
  rm_rf dir

let small_entry n =
  {
    Store.graphs = [ Int64.of_int n ];
    closed = [ { Mc.Scheduler.fp = Int64.of_int n; sleeping = []; nacts = n } ];
    check_entries = [];
    partial = None;
    witnesses = [];
  }

(* Another handle (another process, in practice) rewrites, corrupts or
   deletes an entry this handle holds resident: the next load sees it. *)
let test_foreign_changes_seen () =
  let dir = scratch_dir () in
  let key = default_key [ ("a", C11.Memory_order.Seq_cst) ] in
  let path = entry_path dir key in
  let mine = Store.open_dir dir and other = Store.open_dir dir in
  Store.save mine key (small_entry 1);
  Alcotest.(check bool) "own entry loads" true (Store.load mine key = Some (small_entry 1));
  Alcotest.(check bool) "entry is resident" true (Store.resident_bytes mine > 0);
  (* rewrite: same size, different bytes *)
  Store.save other key (small_entry 2);
  Alcotest.(check bool) "rewrite is seen" true (Store.load mine key = Some (small_entry 2));
  (* corruption: one flipped byte *)
  let raw = Bytes.of_string (read_bytes path) in
  let i = Bytes.length raw / 2 in
  Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0xFF));
  write_bytes path (Bytes.to_string raw);
  let corrupt = (Store.stats mine).corrupt in
  Alcotest.(check bool) "corrupt entry misses" true (Store.load mine key = None);
  Alcotest.(check int) "corruption counted" (corrupt + 1) (Store.stats mine).corrupt;
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path);
  (* deletion *)
  Store.save mine key (small_entry 3);
  Alcotest.(check bool) "resaved entry loads" true (Store.load mine key = Some (small_entry 3));
  Sys.remove path;
  Alcotest.(check bool) "deleted entry misses" true (Store.load mine key = None);
  Alcotest.(check int) "deletion frees the resident copy" 0 (Store.resident_bytes mine);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Reuse of a re-validated hit *)

let reused store = (Store.stats store).reused

(* Every field but [time] and [minor_words]. *)
let check_same_result ~where (a : E.result) (b : E.result) =
  check_semantics ~where a b;
  Alcotest.(check bool) (where ^ ": closed keys") true (a.closed = b.closed);
  Alcotest.(check bool) (where ^ ": witnesses") true (a.witnesses = b.witnesses);
  let counts (s : E.stats) = [ s.explored; s.feasible; s.distinct_graphs ] in
  Alcotest.(check (list int)) (where ^ ": counts") (counts a.stats) (counts b.stats);
  let untimed (s : E.stats) = { s with time = 0.; minor_words = 0. } in
  Alcotest.(check bool) (where ^ ": check counters and every other stat") true
    (untimed a.stats = untimed b.stats)

(* On one handle, hits on the bytes an earlier hit re-validated, under
   the same [jobs] and [max_execs], return that hit's result; anything
   that changes the bytes, the resident record or the run's settings
   re-validates. *)
let reuse_case ~where (b : B.t) ~ords (t : B.test) =
  let dir = scratch_dir () in
  let store = Store.open_dir dir in
  let key = check_key b t ~ords in
  let path = entry_path dir key in
  let call ?stop ?(jobs = 1) ?(max_execs = Some cap) () =
    Store.explore_checked ~store ?stop ~checker ~max_execs ~jobs ~prune:true b ~ords t
  in
  let hit ?jobs ?max_execs what =
    let r, d = call ?jobs ?max_execs () in
    Alcotest.(check bool) (Printf.sprintf "%s: %s: a hit" where what) true (d = `Hit);
    r
  in
  let cold, d0 = call () in
  Alcotest.(check bool) (where ^ ": cold run misses") true (d0 = `Miss);
  let first = hit "first hit" in
  check_semantics ~where:(where ^ ": first hit") cold first;
  Alcotest.(check int) (where ^ ": the first hit re-validates") 0 (reused store);
  check_same_result ~where:(where ^ ": second hit") first (hit "second hit");
  check_same_result ~where:(where ^ ": third hit") first (hit "third hit");
  Alcotest.(check int) (where ^ ": two reuses") 2 (reused store);
  let reuses = ref 2 in
  let revalidated what r =
    Alcotest.(check int) (Printf.sprintf "%s: %s: re-validated" where what) !reuses (reused store);
    check_semantics ~where:(where ^ ": " ^ what) first r;
    r
  in
  (* the next hit reuses the re-validation [r] *)
  let reuses_again what r =
    check_same_result ~where:(where ^ ": " ^ what) r (hit what);
    incr reuses;
    Alcotest.(check int) (Printf.sprintf "%s: %s: reused" where what) !reuses (reused store)
  in
  (* another handle rewrites the entry: same size, other bytes (its
     closed keys in another order) *)
  let bytes = read_bytes path in
  let other = Store.open_dir dir in
  let e = Option.get (Store.load other key) in
  Store.save other key { e with closed = List.rev e.closed };
  Alcotest.(check bool) (where ^ ": the rewrite keeps the size, not the bytes") true
    (String.length (read_bytes path) = String.length bytes && read_bytes path <> bytes);
  reuses_again "after a re-validated rewrite"
    (revalidated "a rewrite by another handle" (hit "after a rewrite"));
  (* a save through this handle *)
  Store.save store key (Option.get (Store.load store key));
  reuses_again "after a re-validated save" (revalidated "a save" (hit "after a save"));
  (* a stopped hit keeps nothing *)
  Store.save store key (Option.get (Store.load store key));
  let stopped, _ = call ~stop:(fun () -> true) () in
  Alcotest.(check bool) (where ^ ": a stopped hit truncates") true stopped.stats.truncated;
  ignore (revalidated "a hit after a stopped one" (hit "after a stopped hit"));
  (* other settings, each right after a serial hit has kept its result *)
  List.iter
    (fun (what, jobs, max_execs) ->
      ignore (hit "a serial hit");
      reuses := reused store;
      ignore (revalidated what (hit ~jobs ~max_execs what)))
    [ ("another cap", 1, Some (cap - 1)); ("-j2 after serial hits", 2, Some cap) ];
  (* a doctored witness is a corrupt miss, never a reuse *)
  let e = Option.get (Store.load store key) in
  Store.save store key
    { e with witnesses = e.witnesses @ [ { E.keys = [ "race:no such key" ]; path = [||] } ] };
  let corrupt = (Store.stats store).corrupt in
  let r, d = call () in
  Alcotest.(check bool) (where ^ ": a doctored witness misses") true (d = `Miss);
  Alcotest.(check int) (where ^ ": counted corrupt") (corrupt + 1) (Store.stats store).corrupt;
  ignore (revalidated "a doctored witness" r);
  rm_rf dir

let test_reuse_clean () =
  let b = treiber () in
  reuse_case ~where:"Treiber Stack/2push-2pop" b ~ords:(Ords.default b.B.sites)
    (find_test b "2push-2pop")

let test_reuse_weakening () =
  let b = find_bench "M&S Queue" in
  let ords = Ords.with_order b.B.sites "enq_cas_next" C11.Memory_order.Relaxed in
  reuse_case ~where:"M&S Queue/1enq-1deq@enq_cas_next=relaxed" b ~ords (find_test b "1enq-1deq")

(* Entries totalling more than the cap: every load stays correct, and
   the resident bytes never exceed the cap. *)
let test_resident_cap () =
  let dir = scratch_dir () in
  let s = Store.open_dir dir in
  let n = 12 in
  let size = Store.resident_cap / 8 in
  let entry i =
    {
      (small_entry i) with
      Store.check_entries =
        [
          {
            Cdsspec.Checker.entry_key = String.make size (Char.chr (Char.code 'a' + i));
            entry_verdict = [];
            entry_h_trunc = false;
            entry_p_trunc = false;
          };
        ];
    }
  in
  let key i = default_key ~test:(Printf.sprintf "t%d" i) [ ("a", C11.Memory_order.Seq_cst) ] in
  let within where =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d resident bytes within the cap" where (Store.resident_bytes s))
      true
      (Store.resident_bytes s <= Store.resident_cap)
  in
  for i = 0 to n - 1 do
    Store.save s (key i) (entry i);
    within (Printf.sprintf "save %d" i)
  done;
  for round = 1 to 2 do
    for i = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "round %d: entry %d loads intact" round i)
        true
        (Store.load s (key i) = Some (entry i));
      within (Printf.sprintf "round %d load %d" round i)
    done
  done;
  Alcotest.(check bool) "the entries overflow the cap" true (n * size > Store.resident_cap);
  rm_rf dir

(* Two writers saving one key at once (two daemon workers, or a daemon
   and a CLI run) never collide on a temp file: every save succeeds and
   the entry left behind is one of them, whole. *)
let test_concurrent_saves () =
  let dir = scratch_dir () in
  let key = default_key [ ("a", C11.Memory_order.Seq_cst) ] in
  ignore (Store.open_dir dir);
  let saves = 500 in
  let writer w () =
    let s = Store.open_dir dir in
    for i = 1 to saves do
      Store.save s key (small_entry ((w * saves) + i))
    done
  in
  let d1 = Domain.spawn (writer 1) and d2 = Domain.spawn (writer 2) in
  Domain.join d1;
  Domain.join d2;
  (match Store.load (Store.open_dir dir) key with
  | Some e ->
    Alcotest.(check bool) "a written entry survives" true
      (e = small_entry (Int64.to_int (List.hd e.Store.graphs)))
  | None -> Alcotest.fail "entry loads after concurrent saves");
  Alcotest.(check (list string))
    "no temp files left" []
    (List.filter (fun f -> Filename.check_suffix f ".tmp") (Array.to_list (Sys.readdir dir)));
  rm_rf dir

let () =
  Alcotest.run "store"
    [
      ( "fingerprint",
        [ Alcotest.test_case "stability and sensitivity" `Quick test_fingerprint_stability ] );
      ( "codec",
        [
          Alcotest.test_case "entry roundtrip" `Quick test_entry_roundtrip;
          Alcotest.test_case "check-cache export/import" `Quick test_check_cache_roundtrip;
          Alcotest.test_case "encode golden bytes" `Quick test_encode_golden;
        ] );
      ( "differential",
        [
          Alcotest.test_case "registry cold vs warm" `Slow test_registry_differential;
          Alcotest.test_case "parallel cold store" `Quick test_parallel_cold_store;
          Alcotest.test_case "partial capped runs" `Slow test_partial_capped_runs;
          Alcotest.test_case "known bugs cold vs warm" `Slow test_known_bugs_differential;
          Alcotest.test_case "published weakenings cold vs warm" `Quick
            test_weakenings_differential;
          Alcotest.test_case "figure 8 injections cold vs warm" `Slow test_fig8_differential;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "corrupt entry discarded" `Quick test_corrupt_entry_discarded;
          Alcotest.test_case "engine-rev flush" `Quick test_engine_rev_flush;
          Alcotest.test_case "directory at entry path" `Quick test_directory_entry;
          Alcotest.test_case "failed save keeps the verdict" `Quick test_failed_save_keeps_verdict;
          Alcotest.test_case "stale witness is a miss" `Quick test_doctored_witness;
          Alcotest.test_case "capped buggy run not saved" `Quick test_capped_buggy_not_saved;
        ] );
      ( "resident",
        [
          Alcotest.test_case "warm hit leaves the entry alone" `Quick test_warm_hit_no_rewrite;
          Alcotest.test_case "partial upgrade rewrites" `Quick test_partial_upgrade_rewrites;
          Alcotest.test_case "foreign changes seen" `Quick test_foreign_changes_seen;
          Alcotest.test_case "a re-validated clean hit is reused" `Quick test_reuse_clean;
          Alcotest.test_case "a re-validated buggy hit is reused" `Quick test_reuse_weakening;
          Alcotest.test_case "byte cap" `Quick test_resident_cap;
          Alcotest.test_case "concurrent same-key saves" `Quick test_concurrent_saves;
        ] );
    ]
