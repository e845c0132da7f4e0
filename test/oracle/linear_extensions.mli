(** Exhaustive enumeration of the linear extensions of a relation: the
    reference for {!C11.Relation.walk_linear_extensions}' child order
    and leaf budget. *)

(** [enumerate ?max ~nodes r] lists the linear extensions of [r]
    restricted to [nodes] in the walker's order: below each prefix, the
    nodes whose predecessors among [nodes] are all placed are tried in
    the order they appear in [nodes]. Enumeration stops after [max]
    (default 20,000) extensions; the flag says whether any remained. *)
val enumerate : ?max:int -> nodes:int list -> C11.Relation.t -> int list list * bool
