(** Mutable residual flow network with integer capacities.

    Arcs are stored in interleaved forward/backward pairs: arc [2i] is the
    forward arc of the [i]-th added edge and arc [2i+1] its residual
    reverse.  The network max-flow oracles ({!Dinic_flow},
    {!Push_relabel}) operate destructively on this structure; call
    {!reset_flow} to reuse a network. *)

type t

type arc = int
(** Arc identifier, as returned by {!add_edge}. *)

val create : ?arc_hint:int -> int -> t
(** [create n] is an empty network on nodes [0..n-1].  [arc_hint]
    pre-sizes the arc store (in arc cells, i.e. twice the edge count)
    so that building a network of known shape performs no growth
    re-allocations.  @raise Invalid_argument on negative arguments. *)

val clear : t -> unit
(** Drop every arc, keeping the node set and the arc store's capacity —
    the reuse path for rebuilding a same-shaped network without
    re-allocation (see also {!reset_flow}, which keeps the topology). *)

val node_count : t -> int

val arc_count : t -> int
(** Number of arcs including reverse arcs (always even). *)

val add_edge : t -> src:int -> dst:int -> cap:int -> arc
(** Adds a directed edge and its zero-capacity reverse.  Returns the
    forward arc id.  @raise Invalid_argument on negative capacity or
    out-of-range endpoints. *)

val arc_src : t -> arc -> int
val arc_dst : t -> arc -> int

val capacity : t -> arc -> int
(** Original capacity of the arc (0 for reverse arcs). *)

val flow : t -> arc -> int
(** Current flow on a forward arc (negative on reverse arcs). *)

val residual : t -> arc -> int
(** Remaining capacity of the arc in the residual graph. *)

val push : t -> arc -> int -> unit
(** [push t a x] sends [x] additional units along [a] (internal use by
    the solvers; exposed for tests). *)

val reset_flow : t -> unit
(** Zero all flows, keeping the topology. *)

val iter_arcs_from : t -> int -> (arc -> unit) -> unit
(** Iterate over all arcs (forward and reverse) leaving a node. *)

val check_conservation : t -> src:int -> sink:int -> bool
(** Flow conservation at every node except [src] and [sink], and
    per-arc capacity constraints.  Used by tests and cross-validation. *)
