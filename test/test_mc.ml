(* Litmus-style validation of the model checker: the allowed/forbidden
   outcome sets of classic weak-memory shapes under various orders. *)

module P = Mc.Program
module E = Mc.Explorer
open C11.Memory_order

let outcomes_of ?config main collect =
  let acc = ref [] in
  let result =
    E.explore ?config ~on_feasible:(fun _ _ ->
        let o = collect () in
        if not (List.mem o !acc) then acc := o :: !acc;
        [])
      main
  in
  (List.sort Stdlib.compare !acc, result)

let explore_bugs main =
  let r = E.explore main in
  r.bugs

(* Store buffering: T1: x=1; r1=y  /  T2: y=1; r2=x *)
let sb_program mo_store mo_load r1 r2 () =
  let x = P.malloc ~init:0 1 in
  let y = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        P.store mo_store x 1;
        r1 := P.load mo_load y)
  in
  let t2 =
    P.spawn (fun () ->
        P.store mo_store y 1;
        r2 := P.load mo_load x)
  in
  P.join t1;
  P.join t2

let test_sb_relaxed () =
  let r1 = ref (-1) and r2 = ref (-1) in
  let outs, _ = outcomes_of (sb_program Relaxed Relaxed r1 r2) (fun () -> (!r1, !r2)) in
  Alcotest.(check bool) "0,0 allowed" true (List.mem (0, 0) outs);
  Alcotest.(check bool) "1,1 allowed" true (List.mem (1, 1) outs);
  Alcotest.(check bool) "0,1 allowed" true (List.mem (0, 1) outs);
  Alcotest.(check bool) "1,0 allowed" true (List.mem (1, 0) outs)

let test_sb_seq_cst () =
  let r1 = ref (-1) and r2 = ref (-1) in
  let outs, _ = outcomes_of (sb_program Seq_cst Seq_cst r1 r2) (fun () -> (!r1, !r2)) in
  Alcotest.(check bool) "0,0 forbidden under SC" false (List.mem (0, 0) outs);
  Alcotest.(check bool) "1,1 allowed" true (List.mem (1, 1) outs)

(* Store buffering with relaxed accesses but seq_cst fences between them:
   the fences restore the SC result. *)
let test_sb_sc_fences () =
  let r1 = ref (-1) and r2 = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed x 1;
          P.fence Seq_cst;
          r1 := P.load Relaxed y)
    in
    let t2 =
      P.spawn (fun () ->
          P.store Relaxed y 1;
          P.fence Seq_cst;
          r2 := P.load Relaxed x)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> (!r1, !r2)) in
  Alcotest.(check bool) "0,0 forbidden with sc fences" false (List.mem (0, 0) outs)

(* Message passing: T1: data=42; flag=1  /  T2: if flag==1 then r=data *)
let mp_program mo_store mo_load r () =
  let data = P.malloc ~init:0 1 in
  let flag = P.malloc ~init:0 1 in
  let t1 =
    P.spawn (fun () ->
        P.store Relaxed data 42;
        P.store mo_store flag 1)
  in
  let t2 =
    P.spawn (fun () ->
        let f = P.load mo_load flag in
        if f = 1 then r := P.load Relaxed data else r := -1)
  in
  P.join t1;
  P.join t2

let test_mp_release_acquire () =
  let r = ref (-2) in
  let outs, _ = outcomes_of (mp_program Release Acquire r) (fun () -> !r) in
  Alcotest.(check bool) "flag seen implies data seen" false (List.mem 0 outs);
  Alcotest.(check bool) "42 observable" true (List.mem 42 outs);
  Alcotest.(check bool) "flag may be missed" true (List.mem (-1) outs)

let test_mp_relaxed_allows_stale () =
  let r = ref (-2) in
  let outs, _ = outcomes_of (mp_program Relaxed Relaxed r) (fun () -> !r) in
  Alcotest.(check bool) "stale data=0 allowed when relaxed" true (List.mem 0 outs)

(* MP with release/acquire *fences* around relaxed accesses. *)
let test_mp_fences () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.fence Release;
          P.store Relaxed flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          let f = P.load Relaxed flag in
          P.fence Acquire;
          if f = 1 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check bool) "fence pair forbids stale read" false (List.mem 0 outs);
  Alcotest.(check bool) "42 observable" true (List.mem 42 outs)

(* IRIW: two writers, two readers; readers disagree on order only when
   not seq_cst. *)
let iriw_program mo r1a r1b r2a r2b () =
  let x = P.malloc ~init:0 1 in
  let y = P.malloc ~init:0 1 in
  let w1 = P.spawn (fun () -> P.store mo x 1) in
  let w2 = P.spawn (fun () -> P.store mo y 1) in
  let rd1 =
    P.spawn (fun () ->
        r1a := P.load mo x;
        r1b := P.load mo y)
  in
  let rd2 =
    P.spawn (fun () ->
        r2a := P.load mo y;
        r2b := P.load mo x)
  in
  P.join w1;
  P.join w2;
  P.join rd1;
  P.join rd2

let test_iriw () =
  let r1a = ref 0 and r1b = ref 0 and r2a = ref 0 and r2b = ref 0 in
  let collect () = (!r1a, !r1b, !r2a, !r2b) in
  let outs_ra, _ = outcomes_of (iriw_program Acquire r1a r1b r2a r2b) collect in
  (* writers use Acquire for loads only; rebuild with release stores *)
  ignore outs_ra;
  let program mo_w mo_r () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let w1 = P.spawn (fun () -> P.store mo_w x 1) in
    let w2 = P.spawn (fun () -> P.store mo_w y 1) in
    let rd1 =
      P.spawn (fun () ->
          r1a := P.load mo_r x;
          r1b := P.load mo_r y)
    in
    let rd2 =
      P.spawn (fun () ->
          r2a := P.load mo_r y;
          r2b := P.load mo_r x)
    in
    P.join w1;
    P.join w2;
    P.join rd1;
    P.join rd2
  in
  let outs, _ = outcomes_of (program Release Acquire) collect in
  Alcotest.(check bool) "iriw split allowed under rel/acq" true (List.mem (1, 0, 1, 0) outs);
  let outs_sc, _ = outcomes_of (program Seq_cst Seq_cst) collect in
  Alcotest.(check bool) "iriw split forbidden under sc" false (List.mem (1, 0, 1, 0) outs_sc)

(* Coherence: a single location behaves SC-per-location even relaxed. *)
let test_coherence_corr () =
  let r1 = ref 0 and r2 = ref 0 in
  let main () =
    let x = P.malloc ~init:0 1 in
    let w = P.spawn (fun () -> P.store Relaxed x 1) in
    let rd =
      P.spawn (fun () ->
          r1 := P.load Relaxed x;
          r2 := P.load Relaxed x)
    in
    P.join w;
    P.join rd
  in
  let outs, _ = outcomes_of main (fun () -> (!r1, !r2)) in
  Alcotest.(check bool) "new then old forbidden (CoRR)" false (List.mem (1, 0) outs);
  Alcotest.(check bool) "old then new allowed" true (List.mem (0, 1) outs)

let test_cowr () =
  (* After observing its own store, a thread cannot read an older value. *)
  let r = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let t =
      P.spawn (fun () ->
          P.store Relaxed x 5;
          r := P.load Relaxed x)
    in
    P.join t
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check (list int)) "reads own store" [ 5 ] outs

(* Release sequences: an acquire load reading from an RMW that extends a
   release store's sequence synchronizes with the release store. *)
let test_release_sequence_through_rmw () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.store Release flag 1)
    in
    let t2 = P.spawn (fun () -> ignore (P.fetch_add Relaxed flag 10)) in
    let t3 =
      P.spawn (fun () ->
          let f = P.load Acquire flag in
          if f = 11 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2;
    P.join t3
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  (* reading the RMW (11) must synchronize with the release store that
     heads the sequence, so data = 42 is guaranteed *)
  Alcotest.(check bool) "stale data after rmw read forbidden" false (List.mem 0 outs);
  Alcotest.(check bool) "42 observable" true (List.mem 42 outs)

(* A same-location relaxed store by ANOTHER thread breaks the release
   sequence (C++11 rules): reading it gives no synchronization. *)
let test_release_sequence_broken_by_foreign_store () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.store Release flag 1)
    in
    let t2 = P.spawn (fun () -> P.store Relaxed flag 7) in
    let t3 =
      P.spawn (fun () ->
          let f = P.load Acquire flag in
          if f = 7 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2;
    P.join t3
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check bool) "foreign store gives no sw: stale data allowed" true (List.mem 0 outs)

(* C11 29.8p3: release store + acquire FENCE after a relaxed load. *)
let test_acquire_fence_rule () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.store Release flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          let f = P.load Relaxed flag in
          P.fence Acquire;
          if f = 1 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check bool) "acquire fence upgrades the relaxed load" false (List.mem 0 outs)

(* C11 29.8p2: release FENCE before a relaxed store + acquire load. *)
let test_release_fence_rule () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.fence Release;
          P.store Relaxed flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          let f = P.load Acquire flag in
          if f = 1 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check bool) "release fence upgrades the relaxed store" false (List.mem 0 outs)

(* Without any fence, the same relaxed pair admits the stale read. *)
let test_no_fence_is_weak () =
  let r = ref (-2) in
  let main () =
    let data = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed data 42;
          P.store Relaxed flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          let f = P.load Acquire flag in
          if f = 1 then r := P.load Relaxed data else r := -1)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> !r) in
  Alcotest.(check bool) "stale read allowed without fence" true (List.mem 0 outs)

(* Thread create/join synchronize. *)
let test_create_join_synchronize () =
  let main () =
    let x = P.malloc 1 in
    P.na_store x 1;
    let t = P.spawn (fun () -> P.na_store x 2) in
    P.join t;
    ignore (P.na_load x)
  in
  let bugs = explore_bugs main in
  Alcotest.(check (list string)) "no race through create/join" []
    (List.map Mc.Bug.key bugs)

(* Uninitialized malloc'd memory is readable until synchronization forces
   the reader past it (poison-write model). *)
let test_poison_visibility () =
  let main () =
    let x = P.malloc 1 in
    (* a write in the allocating thread; same-thread read is forced past
       the poison by coherence *)
    P.store Relaxed x 3;
    ignore (P.load Relaxed x)
  in
  let bugs = explore_bugs main in
  Alcotest.(check (list string)) "own store hides poison" [] (List.map Mc.Bug.key bugs)

let test_poison_cross_thread () =
  let main () =
    let x = P.malloc 1 in
    let t1 = P.spawn (fun () -> P.store Relaxed x 3) in
    let t2 = P.spawn (fun () -> ignore (P.load Relaxed x)) in
    P.join t1;
    P.join t2
  in
  let bugs = explore_bugs main in
  let has = List.exists (function Mc.Bug.Uninitialized_load _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "unsynchronized reader can observe poison" true has

(* Data race detection. *)
let test_race_detected () =
  let main () =
    let x = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.na_store x 1) in
    let t2 = P.spawn (fun () -> ignore (P.na_load x)) in
    P.join t1;
    P.join t2
  in
  let bugs = explore_bugs main in
  let has_race = List.exists (function Mc.Bug.Data_race _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "race reported" true has_race

let test_no_race_when_ordered () =
  let main () =
    let x = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.na_store x 1;
          P.store Release flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          if P.load Acquire flag = 1 then ignore (P.na_load x))
    in
    P.join t1;
    P.join t2
  in
  let bugs = explore_bugs main in
  let has_race = List.exists (function Mc.Bug.Data_race _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "no race with rel/acq ordering" false has_race

let test_race_when_relaxed_flag () =
  let main () =
    let x = P.malloc ~init:0 1 in
    let flag = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.na_store x 1;
          P.store Relaxed flag 1)
    in
    let t2 =
      P.spawn (fun () ->
          if P.load Relaxed flag = 1 then ignore (P.na_load x))
    in
    P.join t1;
    P.join t2
  in
  let bugs = explore_bugs main in
  let has_race = List.exists (function Mc.Bug.Data_race _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "race with relaxed flag" true has_race

let test_uninitialized_load () =
  let main () =
    let x = P.malloc 1 in
    ignore (P.load Relaxed x)
  in
  let bugs = explore_bugs main in
  let has = List.exists (function Mc.Bug.Uninitialized_load _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "uninit load reported" true has

let test_assertion () =
  let main () =
    let x = P.malloc ~init:1 1 in
    P.check (P.load Relaxed x = 2) "x should be 2"
  in
  let bugs = explore_bugs main in
  let has = List.exists (function Mc.Bug.Assertion_failure _ -> true | _ -> false) bugs in
  Alcotest.(check bool) "assertion failure reported" true has

(* CAS semantics: success reads the newest store; failure may read stale
   values whose value differs from the expected one. *)
let test_cas () =
  let ok = ref false and seen = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Relaxed x 7) in
    let t2 =
      P.spawn (fun () ->
          let success, v = P.cas_val Acq_rel x ~expected:7 ~desired:9 in
          ok := success;
          seen := v)
    in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> (!ok, !seen)) in
  Alcotest.(check bool) "cas can succeed seeing 7" true (List.mem (true, 7) outs);
  Alcotest.(check bool) "cas can fail seeing 0" true (List.mem (false, 0) outs);
  Alcotest.(check bool) "cas cannot fail seeing 7" false (List.mem (false, 7) outs)

let test_fetch_add () =
  let r1 = ref (-1) and r2 = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> r1 := P.fetch_add Acq_rel x 1) in
    let t2 = P.spawn (fun () -> r2 := P.fetch_add Acq_rel x 1) in
    P.join t1;
    P.join t2
  in
  let outs, _ = outcomes_of main (fun () -> List.sort Stdlib.compare [ !r1; !r2 ]) in
  Alcotest.(check (list (list int))) "fetch_add atomic" [ [ 0; 1 ] ] outs

let test_exploration_counts () =
  (* Two independent writers to distinct locations: schedules differ but
     behaviours coincide; explorer must terminate with a handful of runs. *)
  let main () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Relaxed x 1) in
    let t2 = P.spawn (fun () -> P.store Relaxed y 1) in
    P.join t1;
    P.join t2
  in
  let r = E.explore main in
  Alcotest.(check bool) "explored some" true (r.stats.explored >= 2);
  Alcotest.(check int) "explored = feasible + pruned" r.stats.explored
    (r.stats.feasible + r.stats.pruned_loop_bound + r.stats.pruned_max_actions
   + r.stats.pruned_sleep_set + r.stats.pruned_equiv);
  Alcotest.(check bool) "no bugs" true (r.bugs = [])

(* Loop bounding: an unbounded spin against a flag that is eventually set
   must terminate exploration and keep the feasible executions. *)
let test_spin_loop_terminates () =
  let r = ref (-1) in
  let main () =
    let flag = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Release flag 1) in
    let t2 =
      P.spawn (fun () ->
          let rec wait () = if P.load Acquire flag = 0 then wait () else () in
          wait ();
          r := 1)
    in
    P.join t1;
    P.join t2
  in
  let outs, result = outcomes_of main (fun () -> !r) in
  Alcotest.(check (list int)) "spin exits" [ 1 ] outs;
  Alcotest.(check bool) "some branches pruned" true (result.stats.pruned_loop_bound > 0)

(* The spin above as an await: the waiter blocks instead of spinning, so
   no run reaches the loop bound and the flag is read exactly once. *)
let test_await_blocks () =
  let r = ref (-1) in
  let main () =
    let flag = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Release flag 1) in
    let t2 = P.spawn (fun () -> r := P.await Acquire flag ~until:(fun v -> v = 1)) in
    P.join t1;
    P.join t2
  in
  let outs, result = outcomes_of main (fun () -> !r) in
  Alcotest.(check (list int)) "await returns the accepted value" [ 1 ] outs;
  Alcotest.(check int) "no loop-bound prunes" 0 result.stats.pruned_loop_bound;
  Alcotest.(check (list string)) "no bugs" [] (List.map Mc.Bug.key result.bugs)

(* An await no store ever satisfies spins forever: the loop bound used to
   prune those runs silently, an await reports them as a deadlock of the
   waiter and of the main thread joining it. *)
let test_await_forever_is_deadlock () =
  let main () =
    let flag = P.malloc ~init:0 1 in
    let t1 = P.spawn (fun () -> P.store Release flag 1) in
    let t2 = P.spawn (fun () -> ignore (P.await Acquire flag ~until:(fun v -> v = 2))) in
    P.join t1;
    P.join t2
  in
  let r = E.explore main in
  Alcotest.(check (list string)) "deadlock reported" [ "deadlock:0,2" ] (List.map Mc.Bug.key r.bugs);
  Alcotest.(check int) "no loop-bound prunes" 0 r.stats.pruned_loop_bound

(* The await reads only the stores it accepts: racing a writer that
   stores 1, 2, 3, it returns 0, 1 or 3 after exactly one load — it is
   never handed the rejected 2 to re-issue on. *)
let test_await_branches_over_accepted () =
  let r = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed x 1;
          P.store Relaxed x 2;
          P.store Relaxed x 3)
    in
    let t2 =
      P.spawn (fun () -> r := P.await Relaxed x ~until:(fun v -> v <> 2))
    in
    P.join t1;
    P.join t2
  in
  let acc = ref [] in
  ignore
    (E.explore
       ~on_feasible:(fun exec _ ->
         let n = ref 0 in
         for i = 0 to C11.Execution.num_actions exec - 1 do
           let a = C11.Execution.action exec i in
           if a.tid = 2 && a.kind = C11.Action.Load then incr n
         done;
         if not (List.mem (!r, !n) !acc) then acc := (!r, !n) :: !acc;
         [])
       main);
  Alcotest.(check (list (pair int int)))
    "accepted values, one load each" [ (0, 1); (1, 1); (3, 1) ] (List.sort Stdlib.compare !acc)

(* A relaxed await's read is a reads-from choice like a load's: after
   waiting for [y = 1] without synchronizing, the waiter may still read
   a stale [x], although [x = 1] and [x = 2] were stored first. With the
   newest store rejected it must neither block (0 and 1 are readable)
   nor settle for the newest accepted store: no schedule has [x = 0] as
   the newest store at that point, so only the rf branch produces it. *)
let test_await_reads_stale () =
  let r = ref (-1) in
  let main () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed x 1;
          P.store Relaxed x 2;
          P.store Relaxed y 1)
    in
    let t2 =
      P.spawn (fun () ->
          ignore (P.await Relaxed y ~until:(fun v -> v = 1));
          r := P.await Relaxed x ~until:(fun v -> v <> 2))
    in
    P.join t1;
    P.join t2
  in
  let outs, result = outcomes_of main (fun () -> !r) in
  Alcotest.(check (list int)) "stale accepted values" [ 0; 1 ] outs;
  Alcotest.(check (list string)) "never blocked" [] (List.map Mc.Bug.key result.bugs)

(* [malloc] never returns the null pointer, even for the first cell a
   program allocates. *)
let test_malloc_not_null () =
  let seen = ref [] in
  let main () =
    let a = P.malloc 1 in
    let b = P.malloc ~init:0 2 in
    seen := [ a; b ]
  in
  ignore (E.explore main);
  Alcotest.(check bool) "no allocation is 0" true (!seen <> [] && not (List.mem 0 !seen))

(* Every visible operation pauses its fiber and the scheduler commits it;
   only invisible operations commit inside the dispatch hook. The child
   runs alone once the main thread waits at its join, so a scheduler
   that inlined a lone thread's visible operations would count fewer
   switches on some schedules. Checked on every schedule. *)
let test_visible_ops_suspend () =
  let main () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    let t =
      P.spawn (fun () ->
          P.store Relaxed x 1;
          P.na_store y 2;
          P.annotate P.Op_define;
          ignore (P.load Relaxed x))
    in
    ignore (P.load Relaxed x);
    ignore (P.cas Relaxed x ~expected:1 ~desired:2);
    P.join t
  in
  (* store, load, load, cas, join; malloc, malloc, spawn, na_store, annotate *)
  let visible = 5 and invisible = 5 in
  let config = { Mc.Scheduler.default_config with sleep_sets = false } in
  let trace = C11.Vec.create () in
  let runs = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let r = Mc.Scheduler.run ~config ~trace main in
    incr runs;
    Alcotest.(check bool) "complete" true (r.outcome = Mc.Scheduler.Complete);
    Alcotest.(check int) "switches = visible ops" visible r.switches;
    Alcotest.(check int) "inline ops = invisible ops" invisible r.inline_ops;
    if not (E.backtrack trace) then continue_ := false
  done;
  Alcotest.(check bool) "several schedules" true (!runs > 1)

(* ------------------------------------------------------------------ *)
(* Bug.key deduplication: the explorer folds per-execution reports into
   one list keyed by Bug.key, so the key must identify "the same bug
   found again" (same sites, any action ids) without conflating distinct
   bugs at the same location. *)

let action ~id ~tid ~site ~loc kind : C11.Action.t =
  {
    id;
    tid;
    seq = id + 1;
    kind;
    loc;
    mo = C11.Memory_order.Relaxed;
    read_value = None;
    written_value = None;
    rf = None;
    site;
    clock = C11.Clock.empty;
    release_clock = None;
  }

let test_bug_key_dedupes_across_ids () =
  (* the same race rediscovered in another execution commits at different
     action ids; the key must not depend on them *)
  let race ~first_id ~second_id =
    Mc.Bug.Data_race
      {
        first = action ~id:first_id ~tid:1 ~site:(Some "writer") ~loc:7 C11.Action.Na_store;
        second = action ~id:second_id ~tid:2 ~site:(Some "reader") ~loc:7 C11.Action.Na_load;
      }
  in
  Alcotest.(check string)
    "same race at different ids dedupes"
    (Mc.Bug.key (race ~first_id:3 ~second_id:8))
    (Mc.Bug.key (race ~first_id:14 ~second_id:2))

let test_bug_key_separates_kinds () =
  (* distinct bug kinds at the same location must keep distinct keys *)
  let a = action ~id:3 ~tid:1 ~site:(Some "reader") ~loc:7 C11.Action.Na_load in
  let race =
    Mc.Bug.Data_race
      { first = action ~id:1 ~tid:2 ~site:(Some "reader") ~loc:7 C11.Action.Na_store; second = a }
  in
  let uninit = Mc.Bug.Uninitialized_load a in
  Alcotest.(check bool)
    "race and uninit at one location stay distinct" true
    (Mc.Bug.key race <> Mc.Bug.key uninit)

let test_bug_key_separates_sites () =
  (* the same race shape between different site pairs is a different bug *)
  let race s1 s2 =
    Mc.Bug.Data_race
      {
        first = action ~id:0 ~tid:1 ~site:(Some s1) ~loc:7 C11.Action.Na_store;
        second = action ~id:1 ~tid:2 ~site:(Some s2) ~loc:7 C11.Action.Na_load;
      }
  in
  Alcotest.(check bool)
    "different site pairs stay distinct" true
    (Mc.Bug.key (race "enq_store" "deq_load") <> Mc.Bug.key (race "enq_store" "peek_load"))

let test_bug_key_dedupes_in_exploration () =
  (* end to end: a racy flag race fires on many interleavings, yet the
     explorer reports it once *)
  let main () =
    let x = P.malloc ~init:0 1 in
    let y = P.malloc ~init:0 1 in
    (* the relaxed traffic on y multiplies interleavings; the na pair on
       x races in every one of them *)
    let t1 =
      P.spawn (fun () ->
          P.store Relaxed y 1;
          P.na_store ~site:"w" x 1)
    in
    let t2 =
      P.spawn (fun () ->
          ignore (P.load Relaxed y);
          ignore (P.na_load ~site:"r" x))
    in
    P.join t1;
    P.join t2
  in
  let r = E.explore main in
  let keys = List.map Mc.Bug.key r.bugs in
  Alcotest.(check bool) "raced at all" true (r.stats.buggy >= 1);
  Alcotest.(check bool) "buggy on several executions" true (r.stats.buggy > List.length r.bugs);
  Alcotest.(check int) "deduplicated to distinct keys" (List.length keys)
    (List.length (List.sort_uniq Stdlib.compare keys))

let () =
  Alcotest.run "mc"
    [
      ( "litmus",
        [
          Alcotest.test_case "sb relaxed" `Quick test_sb_relaxed;
          Alcotest.test_case "sb seq_cst" `Quick test_sb_seq_cst;
          Alcotest.test_case "sb sc fences" `Quick test_sb_sc_fences;
          Alcotest.test_case "mp release acquire" `Quick test_mp_release_acquire;
          Alcotest.test_case "mp relaxed" `Quick test_mp_relaxed_allows_stale;
          Alcotest.test_case "mp fences" `Quick test_mp_fences;
          Alcotest.test_case "iriw" `Quick test_iriw;
          Alcotest.test_case "coherence CoRR" `Quick test_coherence_corr;
          Alcotest.test_case "coherence CoWR" `Quick test_cowr;
        ] );
      ( "synchronization",
        [
          Alcotest.test_case "release sequence via rmw" `Quick test_release_sequence_through_rmw;
          Alcotest.test_case "release sequence broken" `Quick
            test_release_sequence_broken_by_foreign_store;
          Alcotest.test_case "acquire fence (29.8p3)" `Quick test_acquire_fence_rule;
          Alcotest.test_case "release fence (29.8p2)" `Quick test_release_fence_rule;
          Alcotest.test_case "no fence is weak" `Quick test_no_fence_is_weak;
          Alcotest.test_case "create/join" `Quick test_create_join_synchronize;
          Alcotest.test_case "poison hidden by own store" `Quick test_poison_visibility;
          Alcotest.test_case "poison visible cross-thread" `Quick test_poison_cross_thread;
        ] );
      ( "builtin-checks",
        [
          Alcotest.test_case "race detected" `Quick test_race_detected;
          Alcotest.test_case "no race when ordered" `Quick test_no_race_when_ordered;
          Alcotest.test_case "race when relaxed flag" `Quick test_race_when_relaxed_flag;
          Alcotest.test_case "uninitialized load" `Quick test_uninitialized_load;
          Alcotest.test_case "assertion" `Quick test_assertion;
        ] );
      ( "rmw",
        [
          Alcotest.test_case "cas" `Quick test_cas;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "counts" `Quick test_exploration_counts;
          Alcotest.test_case "spin loop terminates" `Quick test_spin_loop_terminates;
          Alcotest.test_case "malloc never returns null" `Quick test_malloc_not_null;
          Alcotest.test_case "visible operations always suspend" `Quick test_visible_ops_suspend;
        ] );
      ( "await",
        [
          Alcotest.test_case "blocks instead of spinning" `Quick test_await_blocks;
          Alcotest.test_case "waiting forever is a deadlock" `Quick test_await_forever_is_deadlock;
          Alcotest.test_case "branches over accepted stores" `Quick test_await_branches_over_accepted;
          Alcotest.test_case "reads stale accepted stores" `Quick test_await_reads_stale;
        ] );
      ( "bug-dedup",
        [
          Alcotest.test_case "same race, different ids" `Quick test_bug_key_dedupes_across_ids;
          Alcotest.test_case "distinct kinds, same location" `Quick test_bug_key_separates_kinds;
          Alcotest.test_case "distinct site pairs" `Quick test_bug_key_separates_sites;
          Alcotest.test_case "explorer dedupes end to end" `Quick
            test_bug_key_dedupes_in_exploration;
        ] );
    ]
