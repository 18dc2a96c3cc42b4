(** Deterministic, splittable pseudo-random number generation.

    All randomness in the library flows through an explicit [t] state so
    that every allocation, workload and experiment is reproducible from a
    seed.  The generator is xoshiro256** seeded through SplitMix64, the
    standard recommendation of Blackman & Vigna. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed (default 42). *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val split : t -> t
(** [split g] derives a statistically independent child generator and
    advances [g].  Used to give each experiment repetition its own
    stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniform non-negative bits as an OCaml [int]. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound).  Uses rejection sampling, so
    there is no modulo bias.  @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform on [0, x). *)

val bool : t -> bool

val jump_to_stream : t -> int -> t
(** [jump_to_stream g i] derives the [i]-th child stream of [g] without
    advancing [g]; equal [i] always yields an identical stream.  Used to
    parallelise repetitions deterministically. *)
