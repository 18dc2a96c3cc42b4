(** Concrete, serialisable bipartite b-matching instances.

    {!Vod_graph.Bipartite.t} is the engine-facing builder; this module is
    its plain-data mirror for the verification subsystem: a value that
    can be generated from a seed, shrunk to a minimal failing repro,
    written to a repro file and loaded back bit-for-bit.  Adjacency rows
    are kept sorted and duplicate-free so that structural equality is
    meaningful. *)

type t = private {
  n_left : int;  (** Number of stripe requests. *)
  n_right : int;  (** Number of boxes. *)
  right_cap : int array;  (** Upload slots per box. *)
  adj : int array array;  (** Per request: sorted distinct serving boxes. *)
}

val make :
  n_left:int -> n_right:int -> right_cap:int array -> adj:int array array -> t
(** Validates and normalises (sorts and deduplicates each adjacency
    row).  @raise Invalid_argument on negative sizes or capacities,
    length mismatches, or out-of-range neighbours. *)

val of_bipartite : Vod_graph.Bipartite.t -> t
(** Snapshot of a live instance — e.g. the matching instance of an
    engine round, via {!Vod_sim.Engine.last_instance}. *)

val to_bipartite : t -> Vod_graph.Bipartite.t

val edge_count : t -> int
val total_slots : t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** Text serialisation (the repro-file format, [vod-check bipartite 1]). *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first malformed line,
    a negative size, or a request count no array can hold. *)

val save : t -> path:string -> unit

val load : path:string -> (t, string) result
(** {!of_string} of the file's contents; [Error] names [path] when it is
    a directory or cannot be opened or read. *)
