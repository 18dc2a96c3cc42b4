(** Summary statistics for experiment reporting. *)

(** Welford running accumulator: numerically stable streaming mean and
    variance. *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

val mean : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100]; linear interpolation between
    order statistics.  The input is copied and sorted.
    @raise Invalid_argument on empty input or [p] outside [0,100]. *)

val percentile_nearest_rank : float array -> float -> float
(** [percentile_nearest_rank xs p] is the nearest-rank percentile: the
    smallest observation such that at least [ceil (p/100 * n)]
    observations are [<=] it.  Unlike {!percentile} it always returns a
    value actually observed — the right estimator for latency tables
    built from span durations.  The input is copied and sorted.
    @raise Invalid_argument on empty input or [p] outside [0,100]. *)

val linear_fit : (float * float) array -> float * float
(** Ordinary least squares: returns [(slope, intercept)].
    @raise Invalid_argument with fewer than two points. *)

val jain_fairness : float array -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)]: 1 when all values
    are equal, 1/n when one value carries everything.  1.0 for an empty
    or all-zero input (vacuously fair).
    @raise Invalid_argument on negative entries. *)
