(** Small dense-graph kit used for method-call ordering relations:
    reachability, acyclicity, and bounded enumeration of topological
    sorts. Node ids are [0 .. n-1]. *)

type t

(** [create n] is the empty relation over [n] nodes. *)
val create : int -> t

val size : t -> int

(** [add_edge r a b] records [a -> b]. Self-edges are ignored. *)
val add_edge : t -> int -> int -> unit

val has_edge : t -> int -> int -> bool

(** Direct successors of a node. *)
val successors : t -> int -> int list

(** Direct predecessors of a node. *)
val predecessors : t -> int -> int list

(** [reachable r a b]: is there a path [a ->+ b]? *)
val reachable : t -> int -> int -> bool

(** [ordered r a b]: [reachable a b || reachable b a]. *)
val ordered : t -> int -> int -> bool

val is_acyclic : t -> bool

(** Strict down-set of a node: every [x] with [x ->+ node]. *)
val down_set : t -> int -> int list

(** [topological_sorts ?max ?sample ~nodes r] enumerates linear extensions
    of [r] restricted to [nodes].

    With [sample = Some (count, seed)] it instead draws [count] random
    linear extensions (with replacement) from a seeded generator — the
    checker's "randomly generate and check a user-customized number of
    sequential histories" option. Otherwise enumeration is exhaustive but
    truncated after [max] (default 20_000) results. Returns the sorts and
    whether the enumeration was truncated. *)
val topological_sorts :
  ?max:int -> ?sample:int * int -> nodes:int list -> t -> int list list * bool

(** [walk_linear_extensions ?max ~nodes r ~init ~enter ~leaf] is the
    prefix-sharing counterpart of {!topological_sorts}: a DFS over the
    same topological-sort tree that threads a caller state down the
    recursion, so a prefix shared by many extensions is presented to
    [enter] once instead of once per extension.

    [enter st x] extends the prefix state [st] with node [x]; returning
    [`Stop] aborts the entire walk (the checker's early exit on the
    first violating branch). [leaf st] fires on every complete
    extension; [`Stop] likewise aborts the walk.

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

    Child order and the [max] leaf budget match {!topological_sorts}
    exactly: a walk that never returns [`Stop] attempts precisely the
    extensions the enumerator returns, in the same order, and reports
    [`Truncated] iff the enumerator would have reported truncation.
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

(** One arbitrary linear extension over the given nodes (raises
    [Invalid_argument] on a cycle). *)
val any_topological_sort : nodes:int list -> t -> int list
