(** The video catalog.  Every video is encoded into [c] stripes of rate
    [1/c] (Section 1.1's packet-interleaving encoding); stripe [j] of
    video [v] gets the global stripe id [v*c + j]. *)

type t

val create : m:int -> c:int -> t
(** [m] distinct videos of [c] stripes each.
    @raise Invalid_argument unless [m >= 0] and [c >= 1]. *)

val videos : t -> int
(** Catalog size m. *)

val stripes_per_video : t -> int
val total_stripes : t -> int

val stripe_id : t -> video:int -> index:int -> int
(** @raise Invalid_argument on out-of-range video or stripe index. *)

val video_of_stripe : t -> int -> int
val index_of_stripe : t -> int -> int

val stripes_of_video : t -> int -> int array
(** All [c] global stripe ids of a video. *)
