(** Dinic's maximum-flow algorithm over an explicit {!Flow_network}:
    BFS level graph + blocking flows with the current-arc optimisation.
    An oracle for the engine's CSR core ({!Vod_graph.Dinic.solve_csr}),
    which never materialises the network. *)

val max_flow : ?limit:int -> Flow_network.t -> src:int -> sink:int -> int
(** Computes a maximum flow destructively on the network and returns its
    value.  [limit] caps the amount of flow pushed (default unbounded) —
    useful for early-exit feasibility checks.
    @raise Invalid_argument if [src = sink] or either is out of range. *)
