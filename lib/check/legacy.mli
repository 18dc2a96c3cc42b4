(** The legacy matching paths: independent implementations the oracle
    panel ({!Oracle.solvers}) diffs against the engine's CSR Dinic core
    ({!Vod_graph.Bipartite.solve}).  Each reads the instance's CSR rows
    and returns a fresh outcome. *)

val dinic : Vod_graph.Bipartite.t -> Vod_graph.Bipartite.outcome
(** {!Dinic_flow} over the instance's explicit flow network. *)

val push_relabel : Vod_graph.Bipartite.t -> Vod_graph.Bipartite.outcome
(** {!Push_relabel} over the instance's explicit flow network. *)

val hopcroft_karp : Vod_graph.Bipartite.t -> Vod_graph.Bipartite.outcome
(** {!Hopcroft_karp.solve_slots}: slot expansion, no flow network. *)
