(** Small dense-graph kit used for method-call ordering relations:
    reachability, acyclicity, a bounded walk over the linear extensions
    and random sampling of them. Node ids are [0 .. n-1]. *)

type t

(** [create n] is the empty relation over [n] nodes. *)
val create : int -> t

val size : t -> int

(** [add_edge r a b] records [a -> b]. Self-edges are ignored. *)
val add_edge : t -> int -> int -> unit

val has_edge : t -> int -> int -> bool

(** [reachable r a b]: is there a path [a ->+ b]? *)
val reachable : t -> int -> int -> bool

(** [ordered r a b]: [reachable a b || reachable b a]. *)
val ordered : t -> int -> int -> bool

val is_acyclic : t -> bool

(** Strict down-set of a node: every [x] with [x ->+ node]. *)
val down_set : t -> int -> int list

(** [sample_linear_extensions ~count ~seed ~nodes r] draws [count]
    random linear extensions of [r] restricted to [nodes] (with
    replacement) from a generator seeded with [seed] — the checker's
    "randomly generate and check a user-customized number of sequential
    histories" option. Raises [Invalid_argument] on a cycle. *)
val sample_linear_extensions : count:int -> seed:int -> nodes:int list -> t -> int list list

(** [walk_linear_extensions ?max ~nodes r ~init ~enter ~leaf] is a DFS
    over the topological-sort tree of [r] restricted to [nodes] that
    threads a caller state down the recursion, so a prefix shared by
    many linear extensions is presented to [enter] once instead of once
    per extension.

    [enter st x] extends the prefix state [st] with node [x]; returning
    [`Stop] aborts the entire walk (the checker's early exit on the
    first violating branch). [leaf st] fires on every complete
    extension; [`Stop] likewise aborts the walk.

    Child order: below each prefix, the children are the nodes whose
    predecessors among [nodes] are all placed, tried in the order they
    appear in [nodes]. A walk that never returns [`Stop] therefore
    attempts the extensions in lexicographic order of their nodes'
    positions in [nodes].

    Leaf budget: at most [max] (default 20,000) complete extensions are
    visited. A leaf or child attempted after [max] complete extensions
    ends the walk as [`Truncated], so a walk that never stops reports
    [`Truncated] iff there are more than [max] extensions.

    The walk also merges nodes: the subtree below a prefix depends only
    on which nodes the prefix holds and on the state it reached, so a
    child whose (node set, state) pair was already walked to the end
    without a [`Stop] is skipped, and its leaves are charged to the
    budget as if walked. States are hashed with [Hashtbl.hash] and
    compared with [=], so they must be immutable data without closures.
    Both callbacks must be deterministic in their arguments, and may
    have side effects only when they return [`Stop]: a skipped subtree
    calls neither. Relations of [Sys.int_size] or more nodes are walked
    without merging.

    [`Stopped path] gives the nodes of the prefix at which a callback
    stopped, in order: ending with the node whose [enter] stopped, or
    the whole extension when [leaf] stopped. *)
val walk_linear_extensions :
  ?max:int ->
  nodes:int list ->
  t ->
  init:'a ->
  enter:('a -> int -> [ `Enter of 'a | `Stop ]) ->
  leaf:('a -> [ `Continue | `Stop ]) ->
  [ `Complete | `Truncated | `Stopped of int list ]

(** The first linear extension over [nodes] in the walk's child order:
    repeatedly the first node of [nodes] whose predecessors among
    [nodes] are all placed (raises [Invalid_argument] on a cycle). *)
val any_topological_sort : nodes:int list -> t -> int list
