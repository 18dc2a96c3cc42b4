(** System-wide parameters of an (n, u, d)-video system — the knobs of
    Table 1 of the paper that are global to the system (per-box
    capacities live in {!Box}; the catalog size [m] and replication [k]
    are chosen by the allocation scheme in [vod_alloc]).

    All rates are normalised to the video bitrate: [u = 1] means a box
    can upload exactly one full-rate stream.  Videos are split into [c]
    stripes of rate [1/c]; the minimal chunk size is hence [l = 1/c].
    Time is discrete: one round is the time to establish a connection
    and start transferring, and videos last [duration] rounds. *)

type t = private {
  n : int;  (** Number of boxes. *)
  c : int;  (** Stripes per video. *)
  mu : float;  (** Maximal swarm growth factor per round (>= 1). *)
  duration : int;  (** Video duration T, in rounds. *)
}

val make : n:int -> c:int -> mu:float -> duration:int -> t
(** @raise Invalid_argument unless [n >= 1], [c >= 1], [mu] is finite
    and [>= 1.0], and [duration >= 1]. *)

val stripe_rate : t -> float
(** [1/c], the rate of one stripe (= minimal chunk size l). *)

val upload_slots : t -> float -> int
(** [upload_slots p u_b] is [floor (u_b * c)]: the number of whole
    stripes a box of upload capacity [u_b] can serve concurrently
    (Section 1.1: a box can only upload full stripes). *)

val effective_upload : t -> float -> float
(** [u' = floor(u*c)/c], the upload actually usable when serving whole
    stripes. *)
