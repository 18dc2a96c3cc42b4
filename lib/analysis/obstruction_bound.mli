(** Numeric evaluation of the first-moment bound on the probability that
    a random allocation admits an obstruction (Lemmas 3-4 and the proof
    of Theorem 1).  All quantities are handled in log-space; the bound
    regularly spans hundreds of orders of magnitude.

    The union bound is

    P(Nk > 0) <= sum over i = 1..nc, i1 = ceil(nu i)..min(i, mc) of
                   M(i, i1) * (u' n c e / i)^i * (i / (u' n c))^(k i1)

    with [M(i,i1) = C(mc, i1) * C(i-1, i1-1)] the number of multisets of
    [i] stripes with [i1] distinct ones. *)

val log_binomial : int -> int -> float
(** [log (n choose k)]; [neg_infinity] when out of range. *)

val log_union_bound :
  u_eff:float -> nu:float -> n:int -> c:int -> k:int -> m:int -> float
(** Log of the full double sum: the probability that the random
    allocation of an [m]-video catalog admits any obstruction.  A value
    below [log 1 = 0] is a non-trivial guarantee; strongly negative
    values mean "with high probability no obstruction".
    @raise Invalid_argument on non-positive parameters or [nu] outside
    (0,1). *)

val log_phi : u_eff:float -> n:int -> c:int -> k:int -> nu:float -> d_prime:float -> i:int -> float
(** The proof's summand [phi(i) = (i/(u' n c))^(kappa i) * delta^i]
    with [kappa = nu k - 2] and [delta = 4 d' e^2 / u'], in log space.
    Exposed for studying the proof's structure numerically. *)

val phi_minimiser : u_eff:float -> n:int -> c:int -> k:int -> nu:float -> d_prime:float -> float
(** The analytic minimiser [i* = u' n c / (e delta^(1/kappa))] of
    [phi]: the proof splits its sum at this point.  Requires
    [kappa > 0], i.e. [k > 2/nu].  @raise Invalid_argument otherwise. *)

val min_k_for_target :
  u_eff:float -> nu:float -> n:int -> c:int -> m:int -> target_log:float -> int option
(** Smallest [k <= 10_000] whose union bound is at most [target_log]
    (e.g. [log 0.01]), or [None]. *)
