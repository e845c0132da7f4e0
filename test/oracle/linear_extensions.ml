module Rel = C11.Relation

(* Repeatedly place an available node, trying each in [nodes] order and
   undoing the placement on the way back. [indeg x] counts x's
   predecessors among [nodes] not yet placed; a placed node gets -1. *)
let enumerate ?(max = 20_000) ~nodes r =
  let n = Rel.size r in
  let in_nodes = Array.make n false in
  List.iter (fun x -> in_nodes.(x) <- true) nodes;
  let succs x = List.filter (fun y -> in_nodes.(y) && Rel.has_edge r x y) nodes in
  let indeg = Array.make n 0 in
  List.iter (fun x -> List.iter (fun y -> indeg.(y) <- indeg.(y) + 1) (succs x)) nodes;
  let total = List.length nodes in
  let results = ref [] and count = ref 0 and truncated = ref false in
  let rec go rev_prefix placed =
    if !count >= max then truncated := true
    else if placed = total then begin
      incr count;
      results := List.rev rev_prefix :: !results
    end
    else
      List.iter
        (fun x ->
          if (not !truncated) && indeg.(x) = 0 then begin
            indeg.(x) <- -1;
            List.iter (fun y -> indeg.(y) <- indeg.(y) - 1) (succs x);
            go (x :: rev_prefix) (placed + 1);
            List.iter (fun y -> indeg.(y) <- indeg.(y) + 1) (succs x);
            indeg.(x) <- 0
          end)
        nodes
  in
  go [] 0;
  (List.rev !results, !truncated)
