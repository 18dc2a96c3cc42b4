(** Closed-form machinery of Theorem 1 (homogeneous systems, u > 1).

    Given upload capacity [u > 1], swarm-growth bound [mu] and average
    storage [d], the theorem prescribes

    - stripes     [c > (2 mu^2 - 1) / (u - 1)],
    - expansion margin [nu = 1/(c + 2 mu^2 - 1) - 1/(u c)]  (in (0,1)),
    - effective upload [u' = floor(u c)/c],
    - [d' = max (d, u, e)],
    - replication [k >= 5 nu^-1 * log d' / log u'],

    under which a random allocation w.h.p. survives every adversarial
    demand sequence, yielding catalog size [m = d n / k = Omega(n)]. *)

type t = {
  u : float;
  mu : float;
  d : float;
  c : int;
  nu : float;
  u_eff : float;  (** u' = floor(uc)/c. *)
  d_prime : float;  (** max(d, u, e). *)
  k : int;  (** ceil(5 nu^-1 log d' / log u'). *)
}

val recommended_c : u:float -> mu:float -> int
(** Smallest integer [c] with [c > (2 mu^2 - 1)/(u - 1)].
    @raise Invalid_argument when [u <= 1] or [mu < 1]. *)

val paper_c : u:float -> mu:float -> int
(** The concrete choice made at the end of the Theorem 1 proof:
    [c = ceil (2 * (2 mu^2 - 1) / (u - 1))]. *)

val nu : u:float -> mu:float -> c:int -> float
(** [1/(c + 2 mu^2 - 1) - 1/(u c)]; positive whenever
    [u c > c + 2 mu^2 - 1].  @raise Invalid_argument otherwise. *)

val derive : ?c:int -> u:float -> mu:float -> d:float -> unit -> t
(** Full parameter derivation; [c] defaults to {!paper_c}.
    @raise Invalid_argument when [u], [mu] or [d] is not finite, when
    [u <= 1] or [mu < 1], or when the supplied [c] violates the stripe
    condition. *)

val catalog_size : t -> n:int -> int
(** [floor (d*n/k)]: the catalog size the allocation achieves. *)

val asymptotic_catalog_factor : u:float -> mu:float -> float
(** The constant of the headline bound
    [(u-1)^2 * log((u+1)/2) / (u^3 * mu^2)] — the video-quality versus
    catalog-size tradeoff curve discussed in the conclusion
    (behaves like [(u-1)^3] as [u -> 1+]).
    @raise Invalid_argument when [u <= 1]. *)

val lemma2_lower_bound : c:int -> mu:float -> i:int -> i1:int -> float
(** Lemma 2's guarantee on the number of boxes able to serve a request
    set under the preloading strategy:
    [|B(X)| >= (i - (c + 2 mu^2 - 1) * i1) / (c + 2 (mu^2 - 1))]
    for [i] requests over [i1] distinct stripes.  Often negative (the
    bound is only informative for large swarms); simulation traces must
    always dominate it. *)

val max_catalog_below_threshold : d_max:float -> c:int -> int
(** The negative result (Section 1.3): with [u < 1] the catalog can
    never exceed [d_max / l = d_max * c] videos.
    @raise Invalid_argument unless [d_max] is finite and [>= 0] and
    [c >= 1]. *)
