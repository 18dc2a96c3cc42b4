(** A static allocation: which box stores which stripe replicas.  The
    only data that changes at runtime is the playback caches; the
    allocation itself is immutable once built (Section 1.1). *)

type t

val of_replica_lists : catalog:Catalog.t -> n_boxes:int -> int array array -> t
(** [of_replica_lists ~catalog ~n_boxes boxes_of_stripe] builds an
    allocation from, for each global stripe id, the array of boxes
    storing one replica of it.  A box may appear at most once per
    stripe.
    @raise Invalid_argument on out-of-range boxes, wrong outer length,
    or duplicate replicas of a stripe in one box. *)

val add_replicas : t -> (int * int) list -> t
(** [add_replicas t pairs] is [t] with one more replica of [stripe] on
    [box] for each [(stripe, box)], in list order: [box] is appended to
    the stripe's replica list and [stripe] enters the box's list in
    ascending order (as [box] does the stripe's {!sorted_boxes_of_stripe}
    row), so the result is row for row the allocation
    {!of_replica_lists} builds from the appended lists.  Untouched rows
    are shared with [t], which is unchanged.  O(number of stripes +
    number of boxes) for the outer arrays, plus the touched rows.
    @raise Invalid_argument on an out-of-range stripe or box, or on a
    box that already holds the stripe (in [t] or earlier in [pairs]). *)

val catalog : t -> Catalog.t
val n_boxes : t -> int

val boxes_of_stripe : t -> int -> int array
(** Boxes holding a replica of the stripe (allocation only, not caches). *)

val sorted_boxes_of_stripe : t -> int -> int array
(** The boxes of {!boxes_of_stripe}, ascending: the order of the
    engine's CSR rows, so a row emitted from it needs no reordering. *)

val stripes_of_box : t -> int -> int array
(** Stripe replicas stored by the box. *)

val replica_count : t -> int -> int

val box_load : t -> int -> int
(** Number of stripe replicas stored by a box. *)

val possesses : t -> box:int -> stripe:int -> bool

val stores_video : t -> box:int -> video:int -> bool
(** True when the box stores at least one stripe of the video. *)

val videos_not_stored : t -> box:int -> int list
(** Videos of which the box stores no stripe at all — the targets of the
    negative-result adversary (Section 1.3). *)

val validate : t -> fleet:Box.t array -> c:int -> (unit, string) result
(** Checks storage feasibility: every box's replica count fits in
    [floor(d_b * c)] slots, and every stripe has at least one replica
    when the catalog is non-empty. *)

val storage_utilisation : t -> fleet:Box.t array -> c:int -> float
(** Fraction of total storage slots in use. *)
