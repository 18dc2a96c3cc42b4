(** An allocation: which box stores which stripe replicas (Section 1.1).
    It changes only by {!add_replicas}, the repair controller's installs;
    the playback caches are not part of it.

    Rows are slices of flat arrays: stripe [s]'s holders are
    [(holders t).(row_start t s + i)] for [i < replica_count t s], in
    placement order, and the same slots of {!sorted_holders} hold them
    ascending; {!iter_stored} walks box [b]'s stripes, ascending.
    Reading a row allocates nothing.  An install may move rows and
    replace the arrays: read them again after {!add_replicas}. *)

type t

val of_rows :
  catalog:Catalog.t -> n_boxes:int -> start:int array -> len:int array -> int array -> t
(** [of_rows ~catalog ~n_boxes ~start ~len holders] is the allocation
    whose stripe [s] is held by [holders.(start.(s) + i)], [i < len.(s)],
    in that (placement) order.  The rows lie in stripe order and do not
    overlap; slots between them are ignored, and the slots above the
    last row are where {!add_replicas} first moves rows that outgrow
    their place (size [holders] with {!capacity_for}).  The allocation
    takes [start], [len] and [holders] over: the caller must not change
    them.
    @raise Invalid_argument on out-of-range boxes, a row count other
    than the catalog's stripe count, rows out of order or outside
    [holders], or duplicate replicas of a stripe in one box. *)

val capacity_for : int -> int
(** [capacity_for slots] is the length to give {!of_rows}' [holders] for
    rows spanning [slots] slots: those plus an overflow region for
    installs of [slots / 32]. *)

val of_replica_lists : catalog:Catalog.t -> n_boxes:int -> int array array -> t
(** {!of_rows} from one array per stripe, the rows packed back to back.
    @raise Invalid_argument as {!of_rows}, or on a wrong outer length. *)

val copy : t -> t
(** An allocation with the same rows whose installs leave [t] alone. *)

val add_replicas : t -> (int * int) list -> unit
(** [add_replicas t pairs] installs, in place and in list order, one
    more replica of [stripe] on [box] for each [(stripe, box)]: [box] is
    appended to the stripe's placement row and enters its sorted row in
    order, and [stripe] enters the box's row in order.  Afterwards every
    row equals the one {!of_replica_lists} builds from the appended
    placement rows.  No outer array is copied: a row moves to the tail
    of its array when it has no room, and an array doubles when its
    tail does, so an install costs its rows' lengths, amortised.  Every
    pair is checked before the first is installed.
    @raise Invalid_argument on an out-of-range stripe or box, or on a
    box that already holds the stripe (in [t] or earlier in [pairs]);
    [t] is then unchanged. *)

val catalog : t -> Catalog.t
val n_boxes : t -> int

val holders : t -> int array
(** Every stripe's holders in placement order (see the rows above). *)

val sorted_holders : t -> int array
(** {!holders}' rows, each ascending: the order of the engine's CSR
    rows, so a row emitted from it needs no reordering. *)

val row_start : t -> int -> int
(** Where stripe [s]'s row starts in {!holders} and {!sorted_holders}. *)

val replica_count : t -> int -> int

val box_load : t -> int -> int
(** Number of stripe replicas stored by a box. *)

val iter_holders : t -> int -> (int -> unit) -> unit
(** [iter_holders t s f] applies [f] to stripe [s]'s holders in
    placement order. *)

val iter_stored : t -> int -> (int -> unit) -> unit
(** [iter_stored t b f] applies [f] to box [b]'s stripes, ascending. *)

val possesses : t -> box:int -> stripe:int -> bool
(** One scan of the stripe's sorted row; allocates nothing. *)

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
