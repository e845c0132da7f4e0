(* Unit and property tests for the c11 memory-model kit: memory orders,
   vector clocks, the relation kit, and growable vectors. *)

module Mo = C11.Memory_order
module Clock = C11.Clock
module Rel = C11.Relation
module Vec = C11.Vec

(* ------------------------- memory orders ------------------------- *)

let test_mo_predicates () =
  Alcotest.(check bool) "seq_cst acquires" true (Mo.is_acquire Mo.Seq_cst);
  Alcotest.(check bool) "seq_cst releases" true (Mo.is_release Mo.Seq_cst);
  Alcotest.(check bool) "acquire does not release" false (Mo.is_release Mo.Acquire);
  Alcotest.(check bool) "release does not acquire" false (Mo.is_acquire Mo.Release);
  Alcotest.(check bool) "relaxed is neither" false
    (Mo.is_acquire Mo.Relaxed || Mo.is_release Mo.Relaxed)

let test_mo_validity () =
  Alcotest.(check bool) "acquire store invalid" false (Mo.valid_for Mo.For_store Mo.Acquire);
  Alcotest.(check bool) "release load invalid" false (Mo.valid_for Mo.For_load Mo.Release);
  Alcotest.(check bool) "acq_rel rmw valid" true (Mo.valid_for Mo.For_rmw Mo.Acq_rel);
  Alcotest.(check bool) "relaxed fence is a no-op but accepted" true
    (Mo.valid_for Mo.For_fence Mo.Relaxed)

(* weakening chains terminate and stay valid for the kind *)
let test_mo_weaken_chains () =
  List.iter
    (fun kind ->
      List.iter
        (fun start ->
          let rec chase mo n =
            Alcotest.(check bool) "valid along chain" true (Mo.valid_for kind mo);
            Alcotest.(check bool) "chain short" true (n < 6);
            match Mo.weaken kind mo with
            | Some weaker ->
              Alcotest.(check bool) "strictly weaker or incomparable" true
                (Mo.compare weaker mo < 0);
              chase weaker (n + 1)
            | None -> ()
          in
          chase start 0)
        (Mo.all_for kind))
    [ Mo.For_load; Mo.For_store; Mo.For_rmw; Mo.For_fence ]

let test_mo_string_roundtrip () =
  List.iter
    (fun mo -> Alcotest.(check bool) "roundtrip" true (Mo.of_string (Mo.to_string mo) = Some mo))
    [ Mo.Relaxed; Mo.Acquire; Mo.Release; Mo.Acq_rel; Mo.Seq_cst ]

(* --------------------------- clocks ------------------------------ *)

let clock_of l = List.fold_left (fun c (tid, seq) -> Clock.set c tid seq) Clock.empty l

let clock_gen =
  QCheck.Gen.(
    map clock_of (list_size (int_bound 6) (pair (int_bound 4) (int_bound 10))))

let clock_arb = QCheck.make ~print:(fun c -> Fmt.str "%a" Clock.pp c) clock_gen

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:300 (QCheck.pair clock_arb clock_arb)
    (fun (a, b) ->
      let j = Clock.join a b in
      Clock.leq a j && Clock.leq b j)

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutes" ~count:300 (QCheck.pair clock_arb clock_arb)
    (fun (a, b) -> Clock.equal (Clock.join a b) (Clock.join b a))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:300 clock_arb (fun a ->
      Clock.equal (Clock.join a a) a)

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:300
    (QCheck.triple clock_arb clock_arb clock_arb) (fun (a, b, c) ->
      Clock.equal (Clock.join a (Clock.join b c)) (Clock.join (Clock.join a b) c))

let prop_set_covers =
  QCheck.Test.make ~name:"set makes covers true" ~count:300
    (QCheck.triple clock_arb QCheck.(int_bound 4) QCheck.(int_bound 10)) (fun (c, tid, seq) ->
      Clock.covers (Clock.set c tid seq) ~tid ~seq)

(* Packed-vs-array differential: a clock is a plain max-array; the
   packed immediate representation must be observationally identical to
   that model. The generator deliberately straddles both packing
   boundaries — tid 3/4 and seq 32767/32768 — so every scenario mixes
   packed clocks, spilled clocks, and clocks that cross over mid-way. *)
let model_dim = 8

let boundary_gen =
  QCheck.Gen.(
    let tid = oneof [ int_bound 3; int_range 4 (model_dim - 1) ] in
    let seq = oneof [ int_bound 9; int_range 32760 32775 ] in
    list_size (int_bound 8) (pair tid seq))

let boundary_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat "; " (List.map (fun (t, s) -> Printf.sprintf "%d:=%d" t s) l))
    boundary_gen

let model_of l =
  let m = Array.make model_dim 0 in
  List.iter (fun (tid, seq) -> if seq > m.(tid) then m.(tid) <- seq) l;
  m

let model_leq a b = Array.for_all2 (fun x y -> x <= y) a b

let for_alli f a =
  let ok = ref true in
  Array.iteri (fun i x -> if not (f i x) then ok := false) a;
  !ok

let packable m =
  Array.for_all (fun s -> s <= 32767) m && for_alli (fun i s -> i <= 3 || s = 0) m

let prop_packed_differential =
  QCheck.Test.make ~name:"packed/array differential" ~count:1000
    (QCheck.pair boundary_arb boundary_arb) (fun (la, lb) ->
      let a = clock_of la and b = clock_of lb in
      let ma = model_of la and mb = model_of lb in
      let mj = Array.map2 max ma mb in
      let j = Clock.join a b in
      (* get agrees with the model everywhere, including never-set tids *)
      for_alli (fun i s -> Clock.get a i = s) ma
      && for_alli (fun i s -> Clock.get j i = s) mj
      (* leq / equal / covers agree with the pointwise model *)
      && Clock.leq a b = model_leq ma mb
      && Clock.leq b a = model_leq mb ma
      && Clock.equal a b = (ma = mb)
      && List.for_all (fun (tid, seq) -> Clock.covers j ~tid ~seq = (mj.(tid) >= seq)) la
      (* representation is canonical: packed iff packable, on both the
         built clocks and the join (which may cross the boundary) *)
      && Clock.is_packed a = packable ma
      && Clock.is_packed b = packable mb
      && Clock.is_packed j = packable mj)

let test_clock_basics () =
  let c = Clock.singleton ~tid:2 ~seq:5 in
  Alcotest.(check bool) "covers own" true (Clock.covers c ~tid:2 ~seq:5);
  Alcotest.(check bool) "covers earlier" true (Clock.covers c ~tid:2 ~seq:3);
  Alcotest.(check bool) "not later" false (Clock.covers c ~tid:2 ~seq:6);
  Alcotest.(check bool) "not other thread" false (Clock.covers c ~tid:1 ~seq:1);
  Alcotest.(check bool) "empty covers nothing" false (Clock.covers Clock.empty ~tid:0 ~seq:1);
  Alcotest.(check bool) "set is monotone" true
    (Clock.get (Clock.set c 2 3) 2 = 5) (* no downgrade *)

(* Edge cases the explorer leans on: the empty clock, queries about
   threads a clock has never seen, and growth past the backing array. *)
let test_clock_edges () =
  (* the empty clock trivially covers step 0 of any thread (nothing
     happened yet), and nothing beyond *)
  Alcotest.(check bool) "empty covers step 0" true (Clock.covers Clock.empty ~tid:7 ~seq:0);
  Alcotest.(check bool) "empty covers no real step" false
    (Clock.covers Clock.empty ~tid:0 ~seq:1);
  Alcotest.(check int) "empty get" 0 (Clock.get Clock.empty 99);
  (* queries about never-seen tids: beyond the backing array *)
  let c = Clock.singleton ~tid:2 ~seq:5 in
  Alcotest.(check bool) "never-seen tid not covered" false (Clock.covers c ~tid:50 ~seq:1);
  Alcotest.(check bool) "never-seen tid step 0 covered" true (Clock.covers c ~tid:50 ~seq:0);
  Alcotest.(check int) "never-seen tid get" 0 (Clock.get c 50);
  (* growth: set on a tid far past the current capacity keeps old entries *)
  let big = Clock.set c 40 3 in
  Alcotest.(check int) "grown entry" 3 (Clock.get big 40);
  Alcotest.(check int) "old entry preserved" 5 (Clock.get big 2);
  Alcotest.(check bool) "growth is monotone" true (Clock.leq c big);
  (* joins across different lengths, both orientations *)
  let j1 = Clock.join c big and j2 = Clock.join big c in
  Alcotest.(check bool) "join of prefix is the larger" true
    (Clock.equal j1 big && Clock.equal j2 big);
  Alcotest.(check bool) "join with empty is identity" true
    (Clock.equal (Clock.join Clock.empty big) big
    && Clock.equal (Clock.join big Clock.empty) big);
  (* leq treats missing trailing entries as zero in both directions *)
  Alcotest.(check bool) "shorter leq longer" true (Clock.leq c big);
  Alcotest.(check bool) "longer not leq shorter" false (Clock.leq big c);
  Alcotest.(check bool) "empty leq anything" true (Clock.leq Clock.empty c)

(* -------------------------- relations ---------------------------- *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let r = Rel.create 4 in
  Rel.add_edge r 0 1;
  Rel.add_edge r 0 2;
  Rel.add_edge r 1 3;
  Rel.add_edge r 2 3;
  r

let test_relation_reachability () =
  let r = diamond () in
  Alcotest.(check bool) "0 -> 3" true (Rel.reachable r 0 3);
  Alcotest.(check bool) "3 -/-> 0" false (Rel.reachable r 3 0);
  Alcotest.(check bool) "1 and 2 unordered" false (Rel.ordered r 1 2);
  Alcotest.(check bool) "acyclic" true (Rel.is_acyclic r);
  Alcotest.(check (list int)) "down set of 3" [ 0; 1; 2 ] (List.sort compare (Rel.down_set r 3))

let test_relation_cycle () =
  let r = Rel.create 3 in
  Rel.add_edge r 0 1;
  Rel.add_edge r 1 2;
  Rel.add_edge r 2 0;
  Alcotest.(check bool) "cyclic" false (Rel.is_acyclic r)

let test_topological_sorts_diamond () =
  let r = diamond () in
  let sorts, truncated = Oracle.Linear_extensions.enumerate ~nodes:[ 0; 1; 2; 3 ] r in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "two linear extensions" 2 (List.length sorts);
  List.iter
    (fun s ->
      Alcotest.(check bool) "0 first" true (List.hd s = 0);
      Alcotest.(check bool) "3 last" true (List.nth s 3 = 3))
    sorts

let test_topological_sorts_empty_order () =
  let r = Rel.create 4 in
  let sorts, _ = Oracle.Linear_extensions.enumerate ~nodes:[ 0; 1; 2; 3 ] r in
  Alcotest.(check int) "4! extensions" 24 (List.length sorts)

let test_topological_sorts_truncation () =
  let r = Rel.create 6 in
  let sorts, truncated = Oracle.Linear_extensions.enumerate ~max:10 ~nodes:[ 0; 1; 2; 3; 4; 5 ] r in
  Alcotest.(check bool) "truncated" true truncated;
  Alcotest.(check int) "capped" 10 (List.length sorts)

let test_topological_sorts_sampled () =
  let r = diamond () in
  let sorts = Rel.sample_linear_extensions ~count:20 ~seed:7 ~nodes:[ 0; 1; 2; 3 ] r in
  Alcotest.(check int) "20 samples" 20 (List.length sorts);
  (* samples are valid linear extensions *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "respects edges" true
        (List.hd s = 0 && List.nth s 3 = 3))
    sorts

(* random DAG: edges only i -> j for i < j, so always acyclic *)
let dag_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* edges = list_size (int_bound 10) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (n, List.filter (fun (a, b) -> a < b) edges))

let dag_arb =
  QCheck.make
    ~print:(fun (n, e) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) e)))
    dag_gen

let build_dag (n, edges) =
  let r = Rel.create n in
  List.iter (fun (a, b) -> Rel.add_edge r a b) edges;
  r

let prop_sorts_respect_order =
  QCheck.Test.make ~name:"every sort is a linear extension" ~count:200 dag_arb (fun (n, edges) ->
      let r = build_dag (n, edges) in
      let nodes = List.init n (fun i -> i) in
      let sorts, _ = Oracle.Linear_extensions.enumerate ~max:500 ~nodes r in
      List.for_all
        (fun sort ->
          List.for_all
            (fun (a, b) ->
              let pos x =
                let rec go i = function
                  | [] -> -1
                  | y :: tl -> if x = y then i else go (i + 1) tl
                in
                go 0 sort
              in
              pos a < pos b)
            edges
          && List.sort compare sort = nodes)
        sorts)

let prop_sorts_distinct =
  QCheck.Test.make ~name:"sorts are pairwise distinct" ~count:100 dag_arb (fun (n, edges) ->
      let r = build_dag (n, edges) in
      let nodes = List.init n (fun i -> i) in
      let sorts, _ = Oracle.Linear_extensions.enumerate ~max:500 ~nodes r in
      List.length (List.sort_uniq compare sorts) = List.length sorts)

let prop_down_set_closed =
  QCheck.Test.make ~name:"down sets are downward closed" ~count:200 dag_arb (fun (n, edges) ->
      let r = build_dag (n, edges) in
      List.for_all
        (fun node ->
          let ds = Rel.down_set r node in
          List.for_all (fun x -> List.for_all (fun (a, b) -> b <> x || List.mem a ds) edges) ds)
        (List.init n (fun i -> i)))

(* ------------------------ walker identity ------------------------ *)

(* The walker's child order and leaf budget are the enumerator's: with
   the prefix itself as the state, no two nodes merge, and a walk that
   never stops reaches the enumerated extensions as its leaves, in the
   same order, and truncates iff the enumeration does. Both node orders
   are tried, since children follow the order of [nodes]. *)
let prop_walker_matches_enumerator =
  QCheck.Test.make ~name:"leaves are the enumerated extensions" ~count:200
    QCheck.(pair dag_arb (int_range 1 30))
    (fun ((n, edges), max) ->
      let r = build_dag (n, edges) in
      List.for_all
        (fun nodes ->
          let leaves = ref [] in
          let result =
            Rel.walk_linear_extensions ~max ~nodes r ~init:[]
              ~enter:(fun rev_prefix x -> `Enter (x :: rev_prefix))
              ~leaf:(fun rev_prefix ->
                leaves := List.rev rev_prefix :: !leaves;
                `Continue)
          in
          let sorts, truncated = Oracle.Linear_extensions.enumerate ~max ~nodes r in
          List.rev !leaves = sorts && (result = `Truncated) = truncated)
        [ List.init n Fun.id; List.rev (List.init n Fun.id) ])

(* The reference for the state-merging walk: the plain prefix-sharing
   DFS it replaced, which visits every node of the topological-sort
   tree. It reports only the truncation flag; the callbacks below thread
   the prefix through the state to recover the stop path. *)
let reference_walk ~max ~nodes r ~init ~enter ~leaf =
  let n = Rel.size r in
  let in_nodes = Array.make n false in
  List.iter (fun x -> in_nodes.(x) <- true) nodes;
  let indeg = Array.make n 0 in
  List.iter
    (fun b ->
      List.iter
        (fun a -> if in_nodes.(a) && Rel.has_edge r a b then indeg.(b) <- indeg.(b) + 1)
        nodes)
    nodes;
  let total = List.length nodes in
  let count = ref 0 in
  let truncated = ref false in
  let stopped = ref false in
  let rec go st picked =
    if picked = total then begin
      if !count >= max then truncated := true
      else begin
        incr count;
        match leaf st with
        | `Stop -> stopped := true
        | `Continue -> ()
      end
    end
    else
      List.iter
        (fun x ->
          if (not !truncated) && (not !stopped) && indeg.(x) = 0 then begin
            if !count >= max then truncated := true
            else begin
              match enter st x with
              | `Stop -> stopped := true
              | `Enter st' ->
                indeg.(x) <- -1;
                let bumped = ref [] in
                List.iter
                  (fun y ->
                    if in_nodes.(y) && Rel.has_edge r x y then begin
                      indeg.(y) <- indeg.(y) - 1;
                      bumped := y :: !bumped
                    end)
                  nodes;
                go st' (picked + 1);
                List.iter (fun y -> indeg.(y) <- indeg.(y) + 1) !bumped;
                indeg.(x) <- 0
            end
          end)
        nodes
  in
  go init 0;
  !truncated

type instance = {
  rel : Rel.t;
  nodes : int list;
  max : int;
  next : int -> int -> int;  (* the caller state after entering a node *)
  stop_enter : int -> int -> bool;
  stop_leaf : int -> bool;
}

(* A random walker instance: at most 10 nodes, edges i -> j (i < j) at a
   random density, a random subset of the nodes in random order, a
   budget of 1-40 or 20,000 leaves, and callbacks that stop on a seeded
   hash of (state, node). The state is either order-independent (a sum
   of node weights, which merges every equal down-set), a small hash of
   the prefix (which merges by collision) or a large one (which almost
   never merges). *)
let random_instance rng =
  let int k = Random.State.int rng k in
  let n = 1 + int 10 in
  let rel = Rel.create n in
  let density = int 101 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if int 100 < density then Rel.add_edge rel a b
    done
  done;
  let keep = int 101 in
  let nodes = List.filter (fun _ -> int 100 < keep) (List.init n Fun.id) in
  let nodes =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) nodes))
  in
  let max = if int 4 = 0 then 20_000 else 1 + int 40 in
  let seed = Random.State.bits rng in
  let next =
    match int 3 with
    | 0 ->
      let weight = Array.init n (fun _ -> int 4) in
      fun st x -> st + weight.(x)
    | 1 ->
      let k = 2 + int 6 in
      fun st x -> Hashtbl.hash (seed, st, x) mod k
    | _ -> fun st x -> Hashtbl.hash (seed, st, x)
  in
  let stop_rate = [| 0; 0; 5; 20; 100; 1000 |].(int 6) in
  let hit h = stop_rate > 0 && h mod stop_rate = 0 in
  {
    rel;
    nodes;
    max;
    next;
    stop_enter = (fun st x -> hit (Hashtbl.hash (seed, st, x, 1)));
    stop_leaf = (fun st -> hit (Hashtbl.hash (seed, st, 2)));
  }

(* Run both walkers on one instance: (truncated, stop path, enter
   calls) for the reference, then for the merged walk. *)
let walk_both i =
  let ref_enters = ref 0 and ref_stop = ref None in
  let ref_truncated =
    reference_walk ~max:i.max ~nodes:i.nodes i.rel ~init:(0, [])
      ~enter:(fun (st, rev_path) x ->
        incr ref_enters;
        if i.stop_enter st x then begin
          ref_stop := Some (List.rev (x :: rev_path));
          `Stop
        end
        else `Enter (i.next st x, x :: rev_path))
      ~leaf:(fun (st, rev_path) ->
        if i.stop_leaf st then begin
          ref_stop := Some (List.rev rev_path);
          `Stop
        end
        else `Continue)
  in
  let enters = ref 0 in
  let result =
    Rel.walk_linear_extensions ~max:i.max ~nodes:i.nodes i.rel ~init:0
      ~enter:(fun st x ->
        incr enters;
        if i.stop_enter st x then `Stop else `Enter (i.next st x))
      ~leaf:(fun st -> if i.stop_leaf st then `Stop else `Continue)
  in
  let truncated, stop =
    match result with
    | `Complete -> (false, None)
    | `Truncated -> (true, None)
    | `Stopped path -> (false, Some path)
  in
  ((ref_truncated, !ref_stop, !ref_enters), (truncated, stop, !enters))

let test_walker_identity () =
  let instances = ref 0 and merged = ref 0 and mismatches = ref [] in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      for k = 1 to 20_000 do
        let i = random_instance rng in
        let (ref_trunc, ref_stop, ref_enters), (trunc, stop, enters) = walk_both i in
        if ref_trunc <> trunc || ref_stop <> stop || enters > ref_enters then
          mismatches := Printf.sprintf "seed %d instance %d" seed k :: !mismatches;
        incr instances;
        if enters < ref_enters then incr merged
      done)
    [ 1; 2; 3; 4; 5 ];
  (* same truncation flag, same stop path, never an extra enter call *)
  Alcotest.(check (list string)) "instances that differ from the reference" [] !mismatches;
  (* the identity is vacuous if nothing merges *)
  Alcotest.(check bool)
    (Printf.sprintf "merging fired (%d of %d instances)" !merged !instances)
    true
    (!merged * 20 > !instances)

(* Merging must charge a skipped subtree's leaves to the budget: four
   unordered nodes with an order-independent state merge everywhere,
   and every budget from 1 to 24 truncates exactly as the 24 leaves
   dictate. *)
let test_walker_budget () =
  let r = Rel.create 4 in
  let nodes = [ 0; 1; 2; 3 ] in
  for max = 1 to 30 do
    let leaves = ref 0 in
    let result =
      Rel.walk_linear_extensions ~max ~nodes r ~init:0
        ~enter:(fun st x -> `Enter (st + x))
        ~leaf:(fun _ ->
          incr leaves;
          `Continue)
    in
    Alcotest.(check bool)
      (Printf.sprintf "max %d: truncated iff fewer than 24" max)
      (max < 24)
      (result = `Truncated);
    Alcotest.(check bool) (Printf.sprintf "max %d: leaves skipped" max) true (!leaves < 24)
  done

(* Node ids at or past [Sys.int_size] do not fit the done-set mask, so a
   relation that large walks unmerged: the same enter calls as the
   reference, where a small relation with the same shape merges. *)
let test_walker_large_relation () =
  let walk n nodes =
    walk_both
      {
        rel = Rel.create n;
        nodes;
        max = 20_000;
        next = (fun st x -> st + x);
        stop_enter = (fun _ _ -> false);
        stop_leaf = (fun _ -> false);
      }
  in
  let n = Sys.int_size + 1 in
  let (ref_trunc, _, ref_enters), (trunc, _, enters) = walk n [ n - 4; n - 3; n - 2; n - 1 ] in
  Alcotest.(check bool) "large: same truncation" ref_trunc trunc;
  Alcotest.(check int) "large: no merging" ref_enters enters;
  let _, (_, _, small_enters) = walk 4 [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "small: merging" true (small_enters < ref_enters)

(* ----------------------------- vec ------------------------------- *)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list prefix" [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (Vec.to_list v))

(* Growth past the initial 8-slot capacity across several doublings,
   and reuse after truncating back to empty. *)
let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "length after growth" 1000 (Vec.length v);
  let ok = ref true in
  Vec.iteri (fun i x -> if i <> x then ok := false) v;
  Alcotest.(check bool) "contents survive doubling" true !ok;
  Vec.truncate v 0;
  Alcotest.(check bool) "empty after full truncate" true (Vec.is_empty v);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop v));
  Alcotest.check_raises "last on empty" (Invalid_argument "Vec.last") (fun () ->
      ignore (Vec.last v));
  Vec.push v 7;
  Alcotest.(check int) "reusable after truncate" 7 (Vec.last v)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "c11"
    [
      ( "memory-order",
        [
          Alcotest.test_case "predicates" `Quick test_mo_predicates;
          Alcotest.test_case "validity" `Quick test_mo_validity;
          Alcotest.test_case "weaken chains" `Quick test_mo_weaken_chains;
          Alcotest.test_case "string roundtrip" `Quick test_mo_string_roundtrip;
        ] );
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "edges" `Quick test_clock_edges;
          qt prop_join_upper_bound;
          qt prop_join_commutative;
          qt prop_join_idempotent;
          qt prop_join_associative;
          qt prop_set_covers;
          qt prop_packed_differential;
        ] );
      ( "relation",
        [
          Alcotest.test_case "reachability" `Quick test_relation_reachability;
          Alcotest.test_case "cycle" `Quick test_relation_cycle;
          Alcotest.test_case "diamond sorts" `Quick test_topological_sorts_diamond;
          Alcotest.test_case "empty order" `Quick test_topological_sorts_empty_order;
          Alcotest.test_case "truncation" `Quick test_topological_sorts_truncation;
          Alcotest.test_case "sampling" `Quick test_topological_sorts_sampled;
          qt prop_sorts_respect_order;
          qt prop_sorts_distinct;
          qt prop_down_set_closed;
        ] );
      ( "walker",
        [
          Alcotest.test_case "identity with the unmerged walk" `Quick test_walker_identity;
          Alcotest.test_case "budget charges skipped leaves" `Quick test_walker_budget;
          Alcotest.test_case "large relations walk unmerged" `Quick test_walker_large_relation;
          qt prop_walker_matches_enumerator;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec;
          Alcotest.test_case "growth" `Quick test_vec_growth;
        ] );
    ]
