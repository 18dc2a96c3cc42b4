(** Theorem 2 machinery: u*-balanced heterogeneous systems.

    A system is u_star-balanced when it is (i) u_star-storage-balanced
    ([2 <= d_b/u_b <= d/u_star] for every box) and (ii)
    u_star-upload-compensable: every poor box [b] (with
    [u_b < u_star]) can reserve [u_star + 1 - 2 u_b] upload on some rich
    relay [r b], subject to the relay keeping at least [u_star] for
    itself.  Under [c > 4 mu^4 / (u_star - 1)] and the replication bound
    below, random allocation again scales the catalog linearly. *)

open Vod_model

type t = {
  u_star : float;
  mu : float;
  d : float;
  c : int;
  nu : float;
  u_eff : float;  (** u' = (c + 3 mu^4)/c. *)
  d_prime : float;  (** max(d, u_star, e). *)
  k : int;
}

val recommended_c : u_star:float -> mu:float -> int
(** The proof's concrete choice [c = ceil (10 mu^4 / (u_star - 1))].
    @raise Invalid_argument when [u_star <= 1] or [mu < 1]. *)

val derive : ?c:int -> u_star:float -> mu:float -> d:float -> unit -> t
(** @raise Invalid_argument when [u_star], [mu] or [d] is not finite,
    when [u_star <= 1] or [mu < 1], or when [c] violates
    [c > 4 mu^4 / (u_star - 1)]. *)

val catalog_size : t -> n:int -> int

val certified_k : t -> n:int -> m:int -> target_log:float -> int option
(** Smallest replication certified by the Lemma 4 union bound with this
    derivation's heterogeneous parameters (the proof of Theorem 2 shows
    the same bound applies with its own nu and u').  Thin wrapper over
    {!Obstruction_bound.min_k_for_target}. *)

type compensation = {
  relay_of : int array;  (** poor box id -> rich relay id; -1 for rich boxes. *)
  reserved : float array;  (** upload reserved on each box for relaying. *)
}

val compensate : Box.Fleet.t -> u_star:float -> compensation option
(** Greedy best-fit reservation of [u_star + 1 - 2 u_b] upload for each
    poor box on rich boxes, honouring
    [u_a >= u_star + sum of reservations on a].  [None] when no feasible
    assignment is found (the system is not u_star-upload-compensable by
    this heuristic). *)

val scalability_lower_bound : Box.Fleet.t -> float
(** The intuitive necessary condition of Section 4:
    [u >= 1 + Delta(1)/n].  Returns [1 + Delta(1)/n] for comparison with
    the fleet's average upload. *)
