type t = {
  n : int;
  succ : bool array array;  (* succ.(a).(b) = direct edge a -> b *)
  mutable closure : bool array array option;  (* cached transitive closure *)
}

let create n = { n; succ = Array.make_matrix n n false; closure = None }

let size r = r.n

let add_edge r a b =
  if a <> b && not r.succ.(a).(b) then begin
    r.succ.(a).(b) <- true;
    r.closure <- None
  end

let has_edge r a b = r.succ.(a).(b)

(* Floyd–Warshall closure; n is a handful of method calls so O(n^3) is
   irrelevant, and caching makes repeated reachability queries O(1). *)
let closure r =
  match r.closure with
  | Some c -> c
  | None ->
    let c = Array.map Array.copy r.succ in
    for k = 0 to r.n - 1 do
      for i = 0 to r.n - 1 do
        if c.(i).(k) then
          for j = 0 to r.n - 1 do
            if c.(k).(j) then c.(i).(j) <- true
          done
      done
    done;
    r.closure <- Some c;
    c

let reachable r a b = (closure r).(a).(b)

let ordered r a b = reachable r a b || reachable r b a

let is_acyclic r =
  let c = closure r in
  let ok = ref true in
  for i = 0 to r.n - 1 do
    if c.(i).(i) then ok := false
  done;
  !ok

let down_set r node =
  let c = closure r in
  let out = ref [] in
  for a = r.n - 1 downto 0 do
    if a <> node && c.(a).(node) then out := a :: !out
  done;
  !out

(* Random linear extensions: each draw repeatedly picks one available
   node (every predecessor among [nodes] already placed) uniformly at
   random, from one seeded generator shared by all draws. *)
let sample_linear_extensions ~count ~seed ~nodes r =
  let in_nodes = Array.make r.n false in
  List.iter (fun x -> in_nodes.(x) <- true) nodes;
  let indeg = Array.make r.n 0 in
  List.iter
    (fun b ->
      List.iter
        (fun a -> if in_nodes.(a) && r.succ.(a).(b) then indeg.(b) <- indeg.(b) + 1)
        nodes)
    nodes;
  let total = List.length nodes in
  let rng = Random.State.make [| seed |] in
  let draw () =
    let indeg = Array.copy indeg in
    let avail = ref (List.filter (fun x -> indeg.(x) = 0) nodes) in
    let acc = ref [] in
    for _ = 1 to total do
      match !avail with
      | [] -> invalid_arg "sample_linear_extensions: cycle"
      | l ->
        let k = Random.State.int rng (List.length l) in
        let x = List.nth l k in
        avail := List.filter (fun y -> y <> x) l;
        acc := x :: !acc;
        List.iter
          (fun y ->
            if in_nodes.(y) && r.succ.(x).(y) then begin
              indeg.(y) <- indeg.(y) - 1;
              if indeg.(y) = 0 then avail := y :: !avail
            end)
          nodes
    done;
    List.rev !acc
  in
  List.init count (fun _ -> draw ())

(* State-merging DFS over the topological-sort tree of [r] restricted
   to [nodes]. Instead of materializing every linear extension, visit
   the tree once, threading a caller state down the recursion: a shared
   prefix is presented to [enter] once, not once per extension below
   it.

   The subtree below a node depends only on the set of nodes placed so
   far (which nodes remain available, and in which order they are
   tried) and on the caller's state there, not on the order the prefix
   placed them in. So every node is keyed by (done-set bitmask, state),
   and a child whose key names a subtree already walked to the end with
   no [`Stop] is skipped: the callbacks are deterministic, so walking it
   again would replay the same calls and stop nowhere. Its leaves are
   still charged to the [max] budget — the table remembers how many
   leaves the first walk counted, which is the down-set's linear
   extension count — so a skipped subtree truncates the walk exactly
   where walking it would have. Nodes with fewer than two placed nodes
   are never keyed (no two prefixes reach them), nor are leaves
   (skipping one saves a single [leaf] call), so the table is only built
   for walks over three or more nodes, and not at all once a node id no
   longer fits in an int mask.

   Children are the available nodes in [nodes] order, so extensions
   come in lexicographic order of their nodes' positions in [nodes]; a
   visit attempted after [max] complete extensions marks the walk
   truncated instead (see relation.mli). *)
let walk_linear_extensions ?(max = 20_000) ~nodes r ~init ~enter ~leaf =
  let order = Array.of_list nodes in
  let total = Array.length order in
  let in_nodes = Array.make r.n false in
  Array.iter (fun x -> in_nodes.(x) <- true) order;
  (* a node is available once every predecessor among [nodes] is placed *)
  let succs = Array.make r.n [||] in
  let indeg = Array.make r.n 0 in
  Array.iter
    (fun x ->
      succs.(x) <- Array.of_list (List.filter (fun y -> in_nodes.(y) && r.succ.(x).(y)) nodes);
      Array.iter (fun y -> indeg.(y) <- indeg.(y) + 1) succs.(x))
    order;
  let merging = r.n < Sys.int_size in
  let walked = lazy (Hashtbl.create 64) in
  let path = Array.make total 0 in
  let count = ref 0 in
  let truncated = ref false in
  let stopped = ref (-1) in  (* length of the stop path once a callback stopped *)
  let rec go st mask picked =
    if picked = total then begin
      if !count >= max then truncated := true
      else begin
        incr count;
        match leaf st with
        | `Stop -> stopped := total
        | `Continue -> ()
      end
    end
    else
      for k = 0 to total - 1 do
        let x = order.(k) in
        if indeg.(x) = 0 && (not !truncated) && !stopped < 0 then
          if !count >= max then truncated := true
          else begin
            path.(picked) <- x;
            match enter st x with
            | `Stop -> stopped := picked + 1
            | `Enter st' -> (
              let mask = if merging then mask lor (1 lsl x) else 0 in
              let keyed = merging && picked >= 1 && picked + 1 < total in
              let key = (mask, st') in
              match if keyed then Hashtbl.find_opt (Lazy.force walked) key else None with
              | Some leaves ->
                if !count + leaves <= max then count := !count + leaves else truncated := true
              | None ->
                let before = !count in
                indeg.(x) <- -1;
                Array.iter (fun y -> indeg.(y) <- indeg.(y) - 1) succs.(x);
                go st' mask (picked + 1);
                Array.iter (fun y -> indeg.(y) <- indeg.(y) + 1) succs.(x);
                indeg.(x) <- 0;
                if keyed && (not !truncated) && !stopped < 0 then
                  Hashtbl.add (Lazy.force walked) key (!count - before))
          end
      done
  in
  go init 0 0;
  if !stopped >= 0 then `Stopped (Array.to_list (Array.sub path 0 !stopped))
  else if !truncated then `Truncated
  else `Complete

(* The first extension of the walk's order: repeatedly place the first
   node of [nodes] whose predecessors among [nodes] are all placed. *)
let any_topological_sort ~nodes r =
  let placed = Array.make r.n false in
  let available x =
    (not placed.(x)) && List.for_all (fun a -> placed.(a) || not r.succ.(a).(x)) nodes
  in
  let rec pick acc k =
    if k = 0 then List.rev acc
    else
      match List.find_opt available nodes with
      | Some x ->
        placed.(x) <- true;
        pick (x :: acc) (k - 1)
      | None -> invalid_arg "any_topological_sort: cycle"
  in
  pick [] (List.length nodes)
