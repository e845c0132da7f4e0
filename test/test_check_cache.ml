(* Differential and regression tests of the checker.

   Differential: the prefix-sharing history replay (with and without the
   cross-execution check cache) must report byte-identical bug lists to
   the list-then-replay reference [Oracle.Checker] — over every
   exhaustive registry structure, in serial, parallel and seeded-fuzz
   exploration modes, on correct and known-buggy memory orders.

   Regression: the OP-annotation semantics fixes (op_clear /
   op_clear_define must clear the potential set, repeated op_check must
   not duplicate ordering points), the both-orientations admissibility
   check for same-name rules, the surfaced truncation counters, and the
   [strict_histories] failure mode. *)

module P = Mc.Program
module A = Cdsspec.Annotations
module E = Mc.Explorer
module B = Structures.Benchmark
module Ck = Cdsspec.Checker
module Call = Cdsspec.Call
module Spec = Cdsspec.Spec
open C11.Memory_order

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The two checkers under comparison, as [on_feasible] hooks for a
   spec: the reference, and the checker with an optional cache. *)
let reference spec = Oracle.Checker.hook spec
let checked ?cache spec = Ck.hook ?cache spec

let explore ~check ?(jobs = 1) ?cap (b : B.t) ~ords (t : B.test) =
  let econfig = { E.default_config with scheduler = b.B.scheduler; max_executions = cap } in
  let hook = check b.B.spec in
  if jobs <= 1 then E.explore ~config:econfig ~on_feasible:hook (t.B.program ords)
  else Mc.Parallel.explore ~config:econfig ~on_feasible:hook ~jobs (t.B.program ords)

let keys (r : E.result) = List.map Mc.Bug.key r.bugs

let bench name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.fail ("unknown benchmark " ^ name)

(* ----------------------- differential: serial --------------------- *)

(* Every unit test of every exhaustive registry structure: the
   reference, prefix-sharing replay, and prefix-sharing + cache must
   agree on the bug list. Capped serial DFS is deterministic, so
   identical per-execution verdicts imply identical explorations. *)
let test_differential_serial () =
  List.iter
    (fun (b : B.t) ->
      let ords = Structures.Ords.default b.B.sites in
      List.iter
        (fun (t : B.test) ->
          let where = b.B.name ^ "/" ^ t.B.test_name in
          let expected = keys (explore ~check:reference ~cap:300 b ~ords t) in
          let shared = keys (explore ~check:(checked ?cache:None) ~cap:300 b ~ords t) in
          let cache = Ck.create_cache () in
          let cached = keys (explore ~check:(checked ~cache) ~cap:300 b ~ords t) in
          Alcotest.(check (list string)) (where ^ ": shared = reference") expected shared;
          Alcotest.(check (list string)) (where ^ ": cached = reference") expected cached)
        b.B.tests)
    Structures.Registry.exhaustive

(* Known-buggy memory orders: the assertion-violation messages embed the
   violating history and call, so byte-identical bug keys pin the
   message-reconstruction path of the prefix-sharing walker. *)
let test_differential_buggy () =
  let b = bench "M&S Queue" in
  let found = ref false in
  List.iter
    (fun (label, ords) ->
      List.iter
        (fun (t : B.test) ->
          let where = "M&S Queue[" ^ label ^ "]/" ^ t.B.test_name in
          let expected = keys (explore ~check:reference ~cap:2000 b ~ords t) in
          let cache = Ck.create_cache () in
          let cached = keys (explore ~check:(checked ~cache) ~cap:2000 b ~ords t) in
          if expected <> [] then found := true;
          Alcotest.(check (list string)) (where ^ ": cached = reference") expected cached)
        b.B.tests)
      Structures.Ms_queue.known_bugs;
  Alcotest.(check bool) "some buggy configuration produced bugs" true !found

(* ---------------------- differential: parallel -------------------- *)

(* Uncapped exploration so the parallel determinism contract applies:
   jobs=2 with the cache on must equal the serial reference. *)
let test_differential_parallel () =
  List.iter
    (fun name ->
      let b = bench name in
      let ords = Structures.Ords.default b.B.sites in
      let t = List.hd b.B.tests in
      let expected = keys (explore ~check:reference b ~ords t) in
      let cache = Ck.create_cache () in
      let cached = keys (explore ~check:(checked ~cache) ~jobs:2 b ~ords t) in
      Alcotest.(check (list string)) (name ^ ": -j2 cached = serial reference") expected cached)
    [ "Ticket Lock"; "Seqlock"; "M&S Queue" ];
  (* and a buggy configuration through the parallel cached path *)
  let b = bench "M&S Queue" in
  let ords = snd (List.hd Structures.Ms_queue.known_bugs) in
  let t = List.hd b.B.tests in
  let expected = keys (explore ~check:reference b ~ords t) in
  let cache = Ck.create_cache () in
  let cached = keys (explore ~check:(checked ~cache) ~jobs:2 b ~ords t) in
  Alcotest.(check bool) "buggy M&S queue found" true (expected <> []);
  Alcotest.(check (list string)) "buggy: -j2 cached = serial reference" expected cached

(* ------------------------ differential: fuzz ---------------------- *)

(* Same seed, same execution budget: run [i] of seed [s] is a pure
   function of [(s, i)], so the cached and reference campaigns see the
   same executions and must report the same bugs. *)
let fuzz_keys ~check (b : B.t) ~ords (t : B.test) =
  let fconfig =
    {
      Fuzz.Engine.default_config with
      scheduler = b.B.scheduler;
      max_executions = Some 400;
      minimize = false;
    }
  in
  let r =
    Fuzz.Engine.run ~config:fconfig ~on_feasible:(check b.B.spec) ~seed:42 (t.B.program ords)
  in
  List.map (fun (f : Fuzz.Engine.found) -> Mc.Bug.key f.bug) r.found

let test_differential_fuzz () =
  let b = bench "M&S Queue" in
  let t = List.hd b.B.tests in
  List.iter
    (fun (label, ords) ->
      let expected = fuzz_keys ~check:reference b ~ords t in
      let cache = Ck.create_cache () in
      let cached = fuzz_keys ~check:(checked ~cache) b ~ords t in
      Alcotest.(check (list string)) (label ^ ": fuzz cached = reference") expected cached)
    (("default", Structures.Ords.default b.B.sites) :: Structures.Ms_queue.known_bugs)

(* ------------------- differential: 8-call programs ---------------- *)

(* Eight calls over four threads: a check has hundreds of sequential
   histories, so this is where the walker's merging of equal
   (down-set, state) nodes does its work. *)
let ms_8calls =
  let program ords () =
    let module Q = Structures.Ms_queue in
    let q = Q.create () in
    let producer base =
      P.spawn (fun () ->
          Q.enq ords q (base + 1);
          Q.enq ords q (base + 2))
    in
    let consumer () =
      P.spawn (fun () ->
          ignore (Q.deq ords q);
          ignore (Q.deq ords q))
    in
    let t1 = producer 10 and t2 = consumer () and t3 = producer 30 and t4 = consumer () in
    List.iter P.join [ t1; t2; t3; t4 ]
  in
  B.make ~name:"M&S Queue (8 calls)" ~spec:Structures.Ms_queue.spec
    ~sites:Structures.Ms_queue.sites
    [ ("2x2enq-2x2deq", program) ]

let treiber_8calls =
  let program ords () =
    let module S = Structures.Treiber_stack in
    let s = S.create () in
    let pusher base =
      P.spawn (fun () ->
          S.push ords s (base + 1);
          S.push ords s (base + 2))
    in
    let popper () =
      P.spawn (fun () ->
          ignore (S.pop ords s);
          ignore (S.pop ords s))
    in
    let t1 = pusher 10 and t2 = popper () and t3 = pusher 30 and t4 = popper () in
    List.iter P.join [ t1; t2; t3; t4 ]
  in
  B.make ~name:"Treiber Stack (8 calls)" ~spec:Structures.Treiber_stack.spec
    ~sites:Structures.Treiber_stack.sites
    [ ("2x2push-2x2pop", program) ]

(* A 300-execution campaign, as [check --fuzz --max-executions 300]
   runs it. *)
let campaign ~check ?(spec = fun s -> s) ~seed (b : B.t) ~ords =
  let t = List.hd b.B.tests in
  Fuzz.Engine.run
    ~config:
      {
        Fuzz.Engine.default_config with
        scheduler = b.B.scheduler;
        max_executions = Some 300;
        minimize = false;
      }
    ~on_feasible:(check (spec b.B.spec))
    ~seed (t.B.program ords)

let campaign_keys ~check ~seed b ~ords =
  List.map (fun (f : Fuzz.Engine.found) -> Mc.Bug.key f.bug) (campaign ~check ~seed b ~ords).found

(* The default path (merged walk, memoizing cache), the list-then-replay
   reference and the merged walk with memoization off must
   report the same bugs, under the published orders, under both of
   M&S's published weakenings (data races), and under one weakening per
   structure that only the spec catches, so that assertion messages
   (the failing history and call) are compared too. *)
let test_differential_8calls () =
  let found = ref false and spec_found = ref false in
  List.iter
    (fun ((b : B.t), cases) ->
      List.iter
        (fun (label, ords) ->
          List.iter
            (fun seed ->
              let where = Printf.sprintf "%s[%s] seed %d" b.B.name label seed in
              let default =
                campaign_keys ~check:(checked ~cache:(Ck.create_cache ())) ~seed b ~ords
              in
              let expected = campaign_keys ~check:reference ~seed b ~ords in
              let unmemoized =
                campaign_keys
                  ~check:(checked ~cache:(Ck.create_cache ~memoize:false ()))
                  ~seed b ~ords
              in
              if default <> [] then found := true;
              if List.exists (fun k -> String.length k > 5 && String.sub k 0 5 = "spec:") default
              then spec_found := true;
              Alcotest.(check (list string)) (where ^ ": default = reference") expected default;
              Alcotest.(check (list string)) (where ^ ": memoize:false = reference") expected
                unmemoized)
            [ 1; 2; 3 ])
        cases)
    [
      ( ms_8calls,
        [ ("published", Structures.Ords.default ms_8calls.B.sites) ]
        @ Structures.Ms_queue.known_bugs
        @ [ ("deq_load_head", Structures.Ords.with_order ms_8calls.B.sites "deq_load_head" Relaxed) ]
      );
      ( treiber_8calls,
        [
          ("published", Structures.Ords.default treiber_8calls.B.sites);
          ("push_cas_top", Structures.Ords.with_order treiber_8calls.B.sites "push_cas_top" Release);
        ] );
    ];
  Alcotest.(check bool) "some weakening produced bugs" true !found;
  Alcotest.(check bool) "some weakening produced spec violations" true !spec_found

(* [spec] with every side effect counted in [steps]: one count per call
   the checker replays. *)
let counting steps (Spec.Packed spec) =
  Spec.Packed
    {
      spec with
      methods =
        List.map
          (fun (name, (m : _ Spec.method_spec)) ->
            ( name,
              {
                m with
                side_effect =
                  Option.map
                    (fun f st info ->
                      incr steps;
                      f st info)
                    m.side_effect;
              } ))
          spec.methods;
    }

(* Visiting each (down-set, state) node once bounds the replay work: an
   8-call check replays under 100 calls on average, where walking every
   node of the topological-sort tree replays about 1,000 (M&S) or 750
   (Treiber). *)
let test_steps_per_miss () =
  List.iter
    (fun (b : B.t) ->
      let steps = ref 0 in
      let cache = Ck.create_cache () in
      ignore
        (campaign ~check:(checked ~cache) ~spec:(counting steps) ~seed:1 b
           ~ords:(Structures.Ords.default b.B.sites));
      let misses = (Ck.cache_counters cache).cache_misses in
      Alcotest.(check bool) (b.B.name ^ ": some checks ran") true (misses > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d spec steps per check, at most 200" b.B.name (!steps / misses))
        true
        (!steps <= 200 * misses))
    [ ms_8calls; treiber_8calls ]

(* Cache and truncation counters of 300-execution campaigns on the
   fuzz-only oversized workloads, as the unmerged walk reported them:
   (seed, feasible, hits, misses, histories truncated, prefixes
   truncated). Merging skips replay work; it must not change which
   checks hit the max_histories cap. *)
let oversized_golden =
  [
    ( "M&S Queue (oversized)",
      [ (1, 53, 0, 53, 53, 0); (2, 55, 0, 55, 55, 0); (3, 62, 0, 62, 62, 0) ] );
    ( "Treiber Stack (oversized)",
      [ (1, 41, 0, 41, 0, 0); (2, 43, 0, 43, 0, 0); (3, 53, 0, 53, 0, 0) ] );
    ("Lockfree Set (oversized)", [ (1, 4, 0, 4, 1, 0); (2, 4, 0, 4, 2, 0); (3, 3, 0, 3, 3, 0) ]);
    ( "SPSC Queue (oversized)",
      [ (1, 300, 28, 272, 295, 0); (2, 300, 28, 272, 296, 0); (3, 300, 38, 262, 296, 0) ] );
    ( "Bounded Queue (oversized)",
      [ (1, 297, 0, 297, 252, 0); (2, 298, 0, 298, 258, 0); (3, 295, 0, 295, 253, 0) ] );
  ]

let test_oversized_truncation () =
  let pp = Alcotest.(list (pair int (list int))) in
  List.iter
    (fun (name, golden) ->
      let b = bench name in
      let got =
        List.map
          (fun (seed, _, _, _, _, _) ->
            let cache = Ck.create_cache () in
            let r =
              campaign ~check:(checked ~cache) ~seed b
                ~ords:(Structures.Ords.default b.B.sites)
            in
            let c = Ck.cache_counters cache in
            ( seed,
              [
                r.stats.feasible;
                c.cache_hits;
                c.cache_misses;
                c.histories_truncated;
                c.prefixes_truncated;
              ] ))
          golden
      in
      let want = List.map (fun (seed, f, h, m, ht, pt) -> (seed, [ f; h; m; ht; pt ])) golden in
      Alcotest.check pp (name ^ ": counters") want got)
    oversized_golden

(* ---------------------- OP annotation semantics ------------------- *)

let one_execution program =
  let captured = ref None in
  ignore
    (E.explore
       ~config:{ E.default_config with max_executions = Some 1 }
       ~on_feasible:(fun exec annots ->
         captured := Some (exec, annots);
         [])
       program);
  match !captured with
  | Some x -> x
  | None -> Alcotest.fail "program had no feasible execution"

let calls_of program =
  let exec, annots = one_execution program in
  (exec, Cdsspec.History.calls_of_annots annots)

let ops_of program =
  match snd (calls_of program) with
  | [ c ] -> List.length c.Call.ordering_points
  | l -> Alcotest.failf "expected 1 call, got %d" (List.length l)

(* [@OPClear] discards remembered potential ordering points, not just
   confirmed ones: a later [@OPCheck] of the cleared label is a no-op. *)
let test_op_clear_clears_potential () =
  let n =
    ops_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.potential_op "l";
            A.op_clear ();
            P.store Relaxed x 2;
            A.op_check "l"))
  in
  Alcotest.(check int) "cleared potential op is not confirmable" 0 n

let test_op_clear_define_clears_potential () =
  let n =
    ops_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.potential_op "l";
            P.store Relaxed x 2;
            A.op_clear_define ();
            A.op_check "l"))
  in
  Alcotest.(check int) "only the op_clear_define point survives" 1 n

let test_op_check_no_duplicates () =
  let n =
    ops_of (fun () ->
        let x = P.malloc ~init:0 1 in
        A.api_proc ~name:"m" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.potential_op "l";
            A.op_check "l";
            A.op_check "l"))
  in
  Alcotest.(check int) "repeated op_check confirms once" 1 n

(* ---------------- admissibility: both orientations ---------------- *)

let accounting =
  { Spec.spec_lines = 0; ordering_point_lines = 0; admissibility_lines = 0; api_methods = 0 }

let mk_call ~id ~args =
  {
    Call.id;
    tid = id;
    obj = 0;
    name = "m";
    args;
    ret = None;
    ordering_points = [];
    begin_index = 0;
    end_index = 0;
  }

(* A same-name rule with an asymmetric guard: only the orientation
   (larger-arg, smaller-arg) demands an order. An earlier checker
   evaluated one orientation per unordered pair, so whether the finding
   fired depended on enumeration order; now both orientations are always
   checked. *)
let test_admissibility_orientations () =
  let spec =
    {
      Spec.name = "adm";
      initial = (fun () -> ());
      methods = [];
      admissibility =
        [
          {
            Spec.first = "m";
            second = "m";
            requires_order = (fun m1 m2 -> Call.arg m1 0 > Call.arg m2 0);
          };
        ];
      accounting;
    }
  in
  let check label calls =
    let r = C11.Relation.create 2 in
    let vs = Ck.check_admissibility spec r calls in
    Alcotest.(check int) (label ^ ": exactly one finding") 1 (List.length vs)
  in
  (* the triggering orientation is (args=[2], args=[1]); it must be
     found whichever way the unordered pair is enumerated *)
  check "small id first" [ mk_call ~id:0 ~args:[ 1 ]; mk_call ~id:1 ~args:[ 2 ] ];
  check "large arg first" [ mk_call ~id:0 ~args:[ 2 ]; mk_call ~id:1 ~args:[ 1 ] ]

(* ------------------ truncation surfacing / strict ----------------- *)

let trivial_spec methods =
  Spec.Packed
    {
      Spec.name = "trivial";
      initial = (fun () -> ());
      methods;
      admissibility = [];
      accounting;
    }

(* Two concurrent calls: two sequential histories. *)
let two_concurrent () =
  let x = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        A.api_proc ~name:"a" ~args:[] (fun () ->
            P.store Relaxed x 1;
            A.op_define ()))
  in
  let t2 =
    P.spawn (fun () ->
        A.api_proc ~name:"b" ~args:[] (fun () ->
            P.store Relaxed x 2;
            A.op_define ()))
  in
  P.join t1;
  P.join t2

let test_strict_histories () =
  let exec, annots = one_execution two_concurrent in
  let spec = trivial_spec [ ("a", Spec.default_method); ("b", Spec.default_method) ] in
  let capped = { Ck.default_config with max_histories = 1 } in
  (* default: the capped check passes silently at the verdict level... *)
  Alcotest.(check int) "non-strict: no violation" 0
    (List.length (Ck.check_execution ~config:capped spec exec annots));
  (* ...but the truncation is counted, even with memoization off *)
  let cache = Ck.create_cache ~memoize:false () in
  ignore (Ck.check_execution ~config:capped ~cache spec exec annots);
  let c = Ck.cache_counters cache in
  Alcotest.(check bool) "histories_truncated counted" true (c.histories_truncated >= 1);
  Alcotest.(check int) "memoize:false stores nothing" 0 c.cache_entries;
  (* strict mode turns the partial proof into a failure *)
  let vs =
    Ck.check_execution ~config:{ capped with strict_histories = true } spec exec annots
  in
  Alcotest.(check bool) "strict: `Truncated violation" true
    (List.exists (fun (v : Ck.violation) -> v.kind = `Truncated) vs)

(* Justifying-subhistory cap: a∥b then c, where c needs justification
   and never gets it — its down-set has two linear extensions, so
   max_prefixes = 1 truncates, and strict mode reports it alongside the
   unjustified-call violation. *)
let test_strict_prefixes () =
  let program () =
    let x = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          A.api_proc ~name:"a" ~args:[] (fun () ->
              P.store Relaxed x 1;
              A.op_define ()))
    in
    let t2 =
      P.spawn (fun () ->
          A.api_proc ~name:"b" ~args:[] (fun () ->
              P.store Relaxed x 2;
              A.op_define ()))
    in
    P.join t1;
    P.join t2;
    A.api_proc ~name:"c" ~args:[] (fun () ->
        P.store Relaxed x 3;
        A.op_define ())
  in
  let exec, annots = one_execution program in
  let never_justified =
    {
      Spec.default_method with
      justifying_postcondition = Some (fun _ _ ~s_ret:_ -> false);
    }
  in
  let spec =
    trivial_spec
      [ ("a", Spec.default_method); ("b", Spec.default_method); ("c", never_justified) ]
  in
  let config = { Ck.default_config with max_prefixes = 1; strict_histories = true } in
  let vs = Ck.check_execution ~config spec exec annots in
  Alcotest.(check bool) "unjustified call reported" true
    (List.exists (fun (v : Ck.violation) -> v.kind = `Unjustified) vs);
  Alcotest.(check bool) "prefix truncation reported" true
    (List.exists
       (fun (v : Ck.violation) ->
         match v.kind with
         | `Truncated -> contains_substring v.message "max_prefixes"
         | _ -> false)
       vs)

(* A violation in the middle of a history. Three concurrent calls, and
   a spec whose second call always fails: the reported history is the
   failing prefix (two calls) completed in enumeration order, exactly as
   the list-then-replay reference reports it. *)
let test_violation_message () =
  let program () =
    let x = P.malloc ~init:0 1 in
    let call name v =
      P.spawn (fun () ->
          A.api_proc ~name ~args:[] (fun () ->
              P.store Relaxed x v;
              A.op_define ()))
    in
    List.iter P.join [ call "a" 1; call "b" 2; call "c" 3 ]
  in
  let exec, annots = one_execution program in
  let second_fails =
    {
      Spec.default_method with
      side_effect = Some (fun n _ -> (n + 1, None));
      postcondition = Some (fun n _ ~s_ret:_ -> n <> 2);
    }
  in
  let spec =
    Spec.Packed
      {
        Spec.name = "second-fails";
        initial = (fun () -> 0);
        methods = [ ("a", second_fails); ("b", second_fails); ("c", second_fails) ];
        admissibility = [];
        accounting;
      }
  in
  let messages check = List.map (fun (v : Ck.violation) -> v.message) (check spec exec annots) in
  let expected = messages (fun spec -> Oracle.Checker.check_execution spec) in
  Alcotest.(check int) "one violation" 1 (List.length expected);
  Alcotest.(check bool) "the history names all three calls" true
    (List.for_all
       (fun name -> contains_substring (List.hd expected) (name ^ "("))
       [ "a"; "b"; "c" ]);
  Alcotest.(check (list string)) "same message as the reference" expected
    (messages (fun spec -> Ck.check_execution spec))

(* ------------------------- fingerprints --------------------------- *)

let test_fingerprint () =
  let with_obj obj ret = { (mk_call ~id:0 ~args:[ 7 ]) with Call.obj; ret } in
  let chain () =
    let r = C11.Relation.create 2 in
    C11.Relation.add_edge r 0 1;
    r
  in
  let free () = C11.Relation.create 2 in
  let calls ?(obj = 0) ?ret () = [ with_obj obj ret; mk_call ~id:1 ~args:[] ] in
  Alcotest.(check string) "obj is not part of the fingerprint"
    (Ck.fingerprint (chain ()) (calls ~obj:0 ()))
    (Ck.fingerprint (chain ()) (calls ~obj:9 ()));
  Alcotest.(check bool) "C_RET distinguishes" true
    (Ck.fingerprint (chain ()) (calls ()) <> Ck.fingerprint (chain ()) (calls ~ret:3 ()));
  Alcotest.(check bool) "ordering edges distinguish" true
    (Ck.fingerprint (chain ()) (calls ()) <> Ck.fingerprint (free ()) (calls ()))

let test_cache_hits () =
  let exec, annots = one_execution two_concurrent in
  let spec = trivial_spec [ ("a", Spec.default_method); ("b", Spec.default_method) ] in
  let cache = Ck.create_cache () in
  ignore (Ck.check_execution ~cache spec exec annots);
  ignore (Ck.check_execution ~cache spec exec annots);
  let c = Ck.cache_counters cache in
  Alcotest.(check int) "one miss" 1 c.cache_misses;
  Alcotest.(check int) "one hit" 1 c.cache_hits;
  Alcotest.(check int) "one entry" 1 c.cache_entries;
  let off = Ck.create_cache ~memoize:false () in
  ignore (Ck.check_execution ~cache:off spec exec annots);
  ignore (Ck.check_execution ~cache:off spec exec annots);
  let c = Ck.cache_counters off in
  Alcotest.(check int) "memoize:false never hits" 0 c.cache_hits;
  Alcotest.(check int) "memoize:false counts misses" 2 c.cache_misses;
  Alcotest.(check int) "memoize:false stores nothing" 0 c.cache_entries

(* ------------------------------ main ------------------------------ *)

let () =
  Alcotest.run "check_cache"
    [
      ( "differential",
        [
          Alcotest.test_case "serial: every exhaustive structure" `Slow
            test_differential_serial;
          Alcotest.test_case "serial: known-buggy orders" `Slow test_differential_buggy;
          Alcotest.test_case "parallel (-j2)" `Slow test_differential_parallel;
          Alcotest.test_case "seeded fuzz" `Slow test_differential_fuzz;
          Alcotest.test_case "8-call fuzz campaigns" `Slow test_differential_8calls;
        ] );
      ( "merged walk",
        [
          Alcotest.test_case "spec steps per check" `Quick test_steps_per_miss;
          Alcotest.test_case "oversized truncation counters" `Quick test_oversized_truncation;
          Alcotest.test_case "violation message" `Quick test_violation_message;
        ] );
      ( "op annotations",
        [
          Alcotest.test_case "op_clear clears potential" `Quick test_op_clear_clears_potential;
          Alcotest.test_case "op_clear_define clears potential" `Quick
            test_op_clear_define_clears_potential;
          Alcotest.test_case "repeated op_check" `Quick test_op_check_no_duplicates;
        ] );
      ( "admissibility",
        [ Alcotest.test_case "both orientations" `Quick test_admissibility_orientations ] );
      ( "truncation",
        [
          Alcotest.test_case "strict histories" `Quick test_strict_histories;
          Alcotest.test_case "strict prefixes" `Quick test_strict_prefixes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "hit/miss counters" `Quick test_cache_hits;
        ] );
    ]
