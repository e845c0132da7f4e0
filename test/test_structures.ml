(* Per-benchmark validation: the published memory orders pass the
   specification on every unit test, and exploration stays tractable.
   Injection coverage is exercised by the Figure 8 experiment (bench/)
   and by targeted tests here. *)

module E = Mc.Explorer
module B = Structures.Benchmark

let explore (b : B.t) ?(ords = Structures.Ords.default b.sites) (t : B.test) =
  E.explore
    ~config:{ E.default_config with scheduler = b.scheduler; max_executions = Some 25_000 }
    ~on_feasible:(Cdsspec.Checker.hook b.spec)
    (t.program ords)

let test_correct_passes (b : B.t) () =
  List.iter
    (fun (t : B.test) ->
      let r = explore b t in
      Alcotest.(check (list string))
        (b.name ^ "/" ^ t.test_name ^ ": no bugs")
        []
        (List.map Mc.Bug.key r.bugs);
      Alcotest.(check bool)
        (b.name ^ "/" ^ t.test_name ^ ": feasible")
        true (r.stats.feasible > 0))
    b.tests

let test_injection_rate (b : B.t) ~expect_at_least () =
  let weakenable = Structures.Ords.weakenable b.sites in
  let detected =
    List.filter
      (fun (s : Structures.Ords.site) ->
        match Structures.Ords.weakened b.sites s.name with
        | None -> false
        | Some ords -> List.exists (fun t -> (explore b ~ords t).bugs <> []) b.tests)
      weakenable
  in
  let rate = List.length detected * 100 / max 1 (List.length weakenable) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: detection rate %d%% >= %d%%" b.name rate expect_at_least)
    true (rate >= expect_at_least)

(* The M&S queue's two known bugs (AutoMO, paper section 6.4.1) are
   caught as specification violations. *)
let test_ms_known_bugs () =
  let module MS = Structures.Ms_queue in
  List.iter
    (fun (site, ords) ->
      let detected =
        List.exists (fun t -> (explore MS.benchmark ~ords t).bugs <> []) MS.benchmark.tests
      in
      Alcotest.(check bool) ("known bug at " ^ site ^ " detected") true detected)
    MS.known_bugs;
  let detected =
    List.exists
      (fun t -> (explore MS.benchmark ~ords:MS.known_buggy_ords t).bugs <> [])
      MS.benchmark.tests
  in
  Alcotest.(check bool) "combined buggy port detected" true detected

(* MCS Lock/handoff must finish, untruncated and clean, under
   [cdsspec_run check]'s default cap ([--max-executions 500000]): its
   waits are awaits, so no spin iteration is enumerated and no run ends
   at the loop bound. *)
let test_mcs_handoff_completes () =
  let b = Structures.Mcs_lock.benchmark in
  let t = List.find (fun (t : B.test) -> t.test_name = "handoff") b.tests in
  let r =
    E.explore
      ~config:{ E.default_config with scheduler = b.scheduler; max_executions = Some 500_000 }
      ~on_feasible:(Cdsspec.Checker.hook b.spec)
      (t.program (Structures.Ords.default b.sites))
  in
  Alcotest.(check bool) "not truncated" false r.stats.truncated;
  Alcotest.(check (list string)) "no bugs" [] (List.map Mc.Bug.key r.bugs);
  Alcotest.(check int) "no loop-bound prunes" 0 r.stats.pruned_loop_bound

(* A lock one thread takes and never releases: the next acquirer waits
   forever, which each await pattern must report as a deadlock of that
   thread and of the main thread joining it (a spin loop's endless runs
   were cut at the loop bound, so no bug was reported). *)
let test_unreleased_lock_deadlocks () =
  let module P = Mc.Program in
  let expect (b : B.t) setup =
    let main () =
      let hold, wait = setup (Structures.Ords.default b.sites) in
      let t1 = P.spawn hold in
      let t2 = P.spawn wait in
      P.join t1;
      P.join t2
    in
    let r = E.explore ~config:{ E.default_config with scheduler = b.scheduler } main in
    Alcotest.(check (list string))
      (b.name ^ ": the waiter blocks forever")
      [ "deadlock:0,2" ]
      (List.map Mc.Bug.key r.bugs)
  in
  let module Mcs = Structures.Mcs_lock in
  expect Mcs.benchmark (fun o ->
      let l = Mcs.create () in
      ( (fun () -> Mcs.lock o l (Mcs.make_node ())),
        fun () ->
          let me = Mcs.make_node () in
          Mcs.lock o l me;
          Mcs.unlock o l me ));
  let module Clh = Structures.Clh_lock in
  expect Clh.benchmark (fun o ->
      let l = Clh.create () in
      ((fun () -> ignore (Clh.lock o l)), fun () -> Clh.unlock o l (Clh.lock o l)));
  let module Ticket = Structures.Ticket_lock in
  expect Ticket.benchmark (fun o ->
      let l = Ticket.create () in
      ( (fun () -> Ticket.lock o l),
        fun () ->
          Ticket.lock o l;
          Ticket.unlock o l ));
  let module Rw = Structures.Linux_rwlock in
  expect Rw.benchmark (fun o ->
      let l = Rw.create () in
      ( (fun () -> Rw.write_lock o l),
        fun () ->
          Rw.write_lock o l;
          Rw.write_unlock o l ))

let benchmark_cases (b : B.t) ~expect_at_least =
  [
    Alcotest.test_case (b.name ^ " correct") `Quick (test_correct_passes b);
    Alcotest.test_case (b.name ^ " injections") `Quick (test_injection_rate b ~expect_at_least);
  ]

let () =
  let module R = Structures.Registry in
  let with_rate name expect_at_least =
    match R.find name with
    | Some b -> benchmark_cases b ~expect_at_least
    | None -> Alcotest.fail ("unknown benchmark " ^ name)
  in
  Alcotest.run "structures"
    [
      ("blocking-queue", with_rate "Blocking Queue" 100);
      ("spsc-queue", with_rate "SPSC Queue" 100);
      ("ms-queue", with_rate "M&S Queue" 80);
      ("seqlock", with_rate "Seqlock" 60);
      ("ticket-lock", with_rate "Ticket Lock" 100);
      ("chase-lev-deque", with_rate "Chase-Lev Deque" 50);
      ("rcu", with_rate "RCU" 100);
      ("lockfree-hashtable", with_rate "Lockfree Hashtable" 60);
      ("mcs-lock", with_rate "MCS Lock" 50);
      ("mpmc-queue", with_rate "MPMC Queue" 30);
      ("linux-rwlock", with_rate "Linux RW Lock" 50);
      ("atomic-register", with_rate "Atomic Register" 0);
      ("contention-free-lock", with_rate "Contention-Free Lock" 100);
      ("treiber-stack", with_rate "Treiber Stack" 60);
      ("peterson-lock", with_rate "Peterson Lock" 40);
      ("barrier", with_rate "Barrier" 100);
      ("rcu-grace", with_rate "RCU Grace" 100);
      ("lockfree-set", with_rate "Lockfree Set" 50);
      ("dekker-lock", with_rate "Dekker Lock" 25);
      ("lamport-ring", with_rate "Lamport Ring" 100);
      ("clh-lock", with_rate "CLH Lock" 100);
      ("lazy-init", with_rate "Lazy Init" 100);
      ("ms-known-bugs", [ Alcotest.test_case "known bugs" `Quick test_ms_known_bugs ]);
      ( "mcs-handoff",
        [ Alcotest.test_case "completes under the CLI cap" `Quick test_mcs_handoff_completes ] );
      ( "liveness",
        [ Alcotest.test_case "unreleased lock deadlocks" `Quick test_unreleased_lock_deadlocks ] );
    ]
