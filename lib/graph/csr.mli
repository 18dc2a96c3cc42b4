(** Flat compressed-sparse-row bipartite instance.

    A [Csr.t] is the cache-friendly wire format shared by all matching /
    max-flow solvers: the edges of left vertex [l] live in
    [col.(row_start.(l)) .. col.(row_start.(l + 1) - 1)], with the
    per-right capacities in a flat [right_cap] array.  Two [int array]s
    replace the [int array array] adjacency rows the solvers used to
    traverse, eliminating a pointer chase and a per-row allocation.

    The value doubles as its own builder, in two forms.  [reset]
    rewinds it to an empty instance of a (possibly different) shape
    while keeping every backing buffer, [add_edge] appends pending edges
    in arbitrary order, and [finalize] compacts them into row-major CSR
    form — deduplicating repeated (left, right) pairs — via a counting
    sort that allocates nothing once the buffers have grown to the
    high-water mark.  [rebuild_rows] skips the pending list: it writes
    each row straight into the row view and sorts it in place.  The
    engine rebuilds its round instance through [rebuild_rows] only;
    [finalize] serves the [add_edge] callers (tests, oracles, probes).

    Buffers returned by [row_start], [col] and [right_cap_array] are
    borrowed: they remain owned by the instance, are invalidated by the
    next [reset]/[finalize], and may be longer than the logical size —
    only the prefixes documented below are meaningful. *)

type t

val create : unit -> t
(** An empty 0x0 instance (finalized). *)

val reset : t -> n_left:int -> n_right:int -> unit
(** Rewind to an empty [n_left] x [n_right] instance with all right
    capacities 0, retaining backing buffers.
    @raise Invalid_argument on negative dimensions. *)

val set_right_cap : t -> int -> int -> unit
(** [set_right_cap t r c] sets the capacity of right vertex [r].
    @raise Invalid_argument if [r] is out of range or [c < 0]. *)

val set_right_caps : t -> int array -> unit
(** [set_right_caps t caps] sets every right's capacity from
    [caps.(0 .. n_right - 1)] in one checked pass.
    @raise Invalid_argument if [caps] is shorter than [n_right] or holds
    a negative capacity; the rights before it are already set. *)

val add_edge : t -> left:int -> right:int -> unit
(** Append a pending edge; duplicates are collapsed by [finalize].
    @raise Invalid_argument on out-of-range endpoints. *)

val finalize : t -> unit
(** Compact pending edges into CSR form: a two-pass stable counting
    sort (by column, then by row) yielding sorted rows, followed by an
    adjacent-duplicate compaction.  O(edges + n_left + n_right), and
    allocation-free once the buffers have grown.  Idempotent; implied
    by the accessors below, so calling it explicitly is only useful for
    timing. *)

val rebuild_rows : t -> n_left:int -> fill:(int -> (int -> unit) -> unit) -> unit
(** One row-major pass that builds the finalized row view for the next
    round: the neighbours of row [l] are written by [fill l emit]
    straight into the column array (in any order, duplicates allowed —
    the row is then sorted and deduplicated in place, so it lands in the
    same normal form as [finalize]).  O(edges + n_left), with no
    counting sort and no O(n_right) pass.  Short rows are
    insertion-sorted; long ones (a popular stripe's cache window) are
    radix-sorted, O(d) for a row of d entries.  One [emit] closure
    serves the whole rebuild, and the sort scratch lives in the
    instance, so once the buffers have grown the pass allocates
    nothing.  The number of rights and the capacity array are
    untouched; set capacities separately ({!set_right_caps}).
    Afterwards the instance is {e frozen}: the pending-edge list no
    longer mirrors the row view, so [add_edge] raises until the next
    [reset].
    @raise Invalid_argument on a negative [n_left] or if [fill] emits an
    out-of-range right. *)

val n_left : t -> int
val n_right : t -> int

val n_edges : t -> int
(** Number of distinct edges (finalizes first). *)

val row_start : t -> int array
(** Borrowed; entries [0 .. n_left] are meaningful (finalizes first). *)

val col : t -> int array
(** Borrowed; entries [0 .. n_edges - 1] are meaningful (finalizes
    first).  Within a row, columns are in ascending order — the same
    normal form as the sorted adjacency view, so the CSR and legacy
    solvers break ties between maximum matchings identically. *)

val right_cap_array : t -> int array
(** Borrowed; entries [0 .. n_right - 1] are meaningful. *)

val right_cap : t -> int -> int
val degree : t -> int -> int
(** Distinct-neighbour degree of a left vertex (finalizes first). *)

val mem : t -> left:int -> right:int -> bool
(** Linear scan of [left]'s row (finalizes first). *)

val iter_row : t -> int -> (int -> unit) -> unit
(** [iter_row t l f] applies [f] to each distinct neighbour of [l]. *)

val total_cap : t -> int
(** Sum of right capacities. *)

val of_adjacency : ?right_cap:int array -> n_right:int -> int array array -> t
(** Fresh instance from adjacency rows (duplicates allowed); rights all
    have capacity 1 unless [right_cap] is given. *)

val load_adjacency : t -> ?right_cap:int array -> n_right:int -> int array array -> unit
(** [of_adjacency] into an existing instance, reusing its buffers. *)

val to_adjacency : t -> int array array
(** Fresh sorted, deduplicated adjacency rows (allocates; for tests,
    certificates and the legacy solver paths). *)
