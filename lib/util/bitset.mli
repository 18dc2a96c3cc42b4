(** Fixed-capacity bitset over [0..capacity-1], packed into an int array
    (32 bits per word): the per-box piece sets of [Piece_swarm] and the
    server sets of [Engine.video_request_stats]. *)

type t

val create : int -> t
(** All bits clear.  @raise Invalid_argument on negative capacity. *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** @raise Invalid_argument unless the index is in [0, capacity). *)

val cardinal : t -> int
(** Population count, O(capacity/32 + population). *)
