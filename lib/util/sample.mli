(** Random sampling primitives built on {!Prng}. *)

val shuffle : Prng.t -> int array -> unit
(** In-place Fisher–Yates shuffle: {!Prng.shuffle_prefix} on the whole
    array. *)

val shuffle_prefix : Prng.t -> int array -> len:int -> unit
(** [shuffle_prefix g a ~len] shuffles [a.(0) .. a.(len - 1)] in place
    and leaves the rest of [a] alone: the same draws and the same
    result as {!shuffle} on [Array.sub a 0 len], without the copy
    ({!Prng.shuffle_prefix}).
    @raise Invalid_argument unless [0 <= len <= Array.length a]. *)

val choose_distinct : Prng.t -> n:int -> k:int -> int array
(** [choose_distinct g ~n ~k] draws [k] pairwise-distinct values from
    [0..n-1], uniformly.  Uses a partial Fisher–Yates, O(n) space.
    @raise Invalid_argument if [k > n] or [k < 0]. *)

(** Alias-method sampler for repeated categorical draws in O(1). *)
module Categorical : sig
  type t

  val create : float array -> t
  (** Preprocess weights (need not be normalised) in O(n).
      @raise Invalid_argument on empty or all-zero weights. *)

  val draw : Prng.t -> t -> int
  val size : t -> int
end

(** Zipf-distributed popularity over ranks [0..n-1]:
    P(rank i) proportional to 1/(i+1)^s. *)
module Zipf : sig
  type t

  val create : n:int -> s:float -> t
  val draw : Prng.t -> t -> int
  val pmf : t -> int -> float
end

val poisson : Prng.t -> float -> int
(** [poisson g lambda] draws from Poisson(lambda); inversion for small
    lambda, normal-tail safe rejection (PTRS) for large. *)
