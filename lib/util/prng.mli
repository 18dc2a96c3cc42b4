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

val index_of_bits : int -> int -> int
(** [index_of_bits bound v] is the value on [0, bound) that {!int}
    takes from the 62-bit draw [v], or [-1] when [v] lies in the
    rejected top of the range and {!int} draws again.  A power-of-two
    [bound] masks and accepts every draw; otherwise [v] is accepted
    below [limit = max_int62 - (max_int62 mod bound)], with
    [max_int62 = 2{^62} - 1], and gives [v mod bound].  The one accept
    test of {!int} and {!shuffle_prefix}.  Requires [bound >= 1] and
    [0 <= v <= max_int62]. *)

val shuffle_prefix : t -> int array -> int -> unit
(** [shuffle_prefix g a len] shuffles [a.(0) .. a.(len - 1)] in place
    by backward Fisher–Yates: for [i] from [len - 1] down to 1 it swaps
    [a.(i)] with [a.(j)], [j] drawn as [int g (i + 1)] draws it.  The
    draws, their order and the final state of [g] are exactly those of
    that loop over {!int}; the loop keeps the state in registers and
    allocates nothing.
    @raise Invalid_argument unless [0 <= len <= Array.length a]. *)

val float : t -> float -> float
(** [float g x] is uniform on [0, x). *)

val bool : t -> bool

val jump_to_stream : t -> int -> t
(** [jump_to_stream g i] derives the [i]-th child stream of [g] without
    advancing [g]; equal [i] always yields an identical stream.  Used to
    parallelise repetitions deterministically. *)
