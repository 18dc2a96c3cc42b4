(** Static allocation schemes (Section 2.1 of the paper).

    Every scheme stores [k] replicas of each of the [m*c] stripes onto
    the boxes' storage slots (box [b] has [floor (d_b * c)] slots).  The
    paper's two randomised schemes are implemented faithfully:

    - {!random_permutation}: a uniform permutation of the [k*m*c] stripe
      replicas into the storage slots, so every box's storage is exactly
      as full as its capacity allows (perfect load balance by
      construction);
    - {!random_independent}: every replica independently picks a box with
      probability proportional to its storage capacity (redrawn when the
      box is already full or already holds the same stripe — the paper
      "stops the process" there, which is the same event).

    Two deterministic baselines complete the set: {!round_robin} and the
    {!full_replication} scheme of Suh et al.'s Push-to-Peer (each box
    stores a slice of every video), which the paper's negative result
    shows is the only option below the threshold. *)

open Vod_model

val max_catalog : fleet:Box.t array -> c:int -> k:int -> int
(** Largest [m] such that [k*m*c] replicas fit in the fleet's storage
    slots — the catalog size dn/k of the paper, in slot units.
    @raise Invalid_argument unless [c >= 1] and [k >= 1]. *)

val random_permutation :
  Vod_util.Prng.t -> fleet:Box.t array -> catalog:Catalog.t -> k:int -> Allocation.t
(** @raise Invalid_argument when the replicas do not fit
    ([k * total_stripes > total slots]).  Slots left over (when the
    division is not exact) remain empty.  If the permutation sends two
    replicas of one stripe to the same box the duplicate is dropped
    (it would be useless for serving), so a stripe may exceptionally
    have fewer than [k] distinct holders. *)

val random_independent :
  Vod_util.Prng.t -> fleet:Box.t array -> catalog:Catalog.t -> k:int -> Allocation.t
(** Storage-proportional independent placement with redraw on full or
    duplicate targets.  @raise Failure when a replica cannot be placed
    after exhausting every box (fleet storage too tight). *)

val round_robin : fleet:Box.t array -> catalog:Catalog.t -> k:int -> Allocation.t
(** Deterministic baseline: replica [i] of stripe [s] goes to box
    [(s*k + i) mod n], skipping full boxes.  Adversarially fragile by
    design — it concentrates consecutive stripes. *)

val full_replication : fleet:Box.t array -> catalog:Catalog.t -> Allocation.t
(** Push-to-Peer-style baseline: box [b] stores stripe [(b+v) mod c] of
    every video [v], i.e. a [1/c] chunk of the entire catalog, so every
    box possesses data of every video (the only option below the upload
    threshold, per the paper's negative result).  Needs [m] storage
    slots per box.  @raise Invalid_argument when some box's storage is
    below the catalog size. *)

type scheme = Permutation | Independent | Round_robin | Full_replication

val names : (string * scheme) list
(** Every scheme under its command-line name, in declaration order:
    [permutation], [independent], [round-robin], [full-replication]. *)

val allocate :
  Vod_util.Prng.t ->
  scheme:scheme ->
  fleet:Box.t array ->
  catalog:Catalog.t ->
  k:int ->
  Allocation.t
(** The one scheme dispatch: {!random_permutation},
    {!random_independent}, {!round_robin} or {!full_replication}
    (which ignores [k]).  The deterministic schemes draw nothing from
    the generator.  Raises as the scheme does. *)
