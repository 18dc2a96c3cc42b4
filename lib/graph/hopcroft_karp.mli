(** Capacitated Hopcroft–Karp bipartite matching.

    Left vertices each need one unit (a stripe request); right vertices
    accept up to [right_cap.(j)] units (a box's stripe-upload slots).
    This is a direct combinatorial solver, independent of the flow-based
    path, used for cross-validation and benchmarking (experiment E9).

    Right vertices are expanded into unit slots, reducing the
    capacitated problem to textbook Hopcroft–Karp.  The vod_check
    oracle panel diffs it against the engine's {!Dinic.solve_csr}. *)

type result = {
  size : int;  (** Number of matched left vertices. *)
  assignment : int array;  (** left -> matched right, or -1. *)
  right_load : int array;  (** Units used per right vertex. *)
}

val solve_slots :
  n_left:int ->
  n_right:int ->
  adj:int array array ->
  right_cap:int array ->
  unit ->
  result
(** Maximum matching by slot expansion, with fresh result arrays.
    @raise Invalid_argument on negative capacities, adjacency out of
    range, or mismatched array lengths. *)
