(** Flat compressed-sparse-row bipartite instance.

    A [Csr.t] is the cache-friendly wire format the matching core
    ({!Dinic.solve_csr}) traverses: the edges of left vertex [l] live in
    [col.(row_start.(l)) .. col.(row_start.(l + 1) - 1)], with the
    per-right capacities in a flat [right_cap] array.  Two [int array]s
    replace the [int array array] adjacency rows the solvers used to
    traverse, eliminating a pointer chase and a per-row allocation.

    The value doubles as its own builder, with one fill path:
    [rebuild_rows] writes each row straight into the column array and
    sorts and deduplicates it in place, reusing every backing buffer.
    The number of rights is fixed at [create]; the number of lefts and
    the capacities may change from one rebuild to the next.

    Buffers returned by [row_start] and [col] are borrowed: they remain
    owned by the instance, are invalidated by the next [rebuild_rows],
    and may be longer than the logical size — only the prefixes
    documented below are meaningful. *)

type t

val create : n_right:int -> t
(** An empty [0] x [n_right] instance with every right capacity 0.
    @raise Invalid_argument on a negative [n_right]. *)

val set_right_caps : t -> int array -> unit
(** [set_right_caps t caps] sets every right's capacity from
    [caps.(0 .. n_right - 1)] in one checked pass.
    @raise Invalid_argument if [caps] is shorter than [n_right] or holds
    a negative capacity; the rights before it are already set. *)

val rebuild_rows : t -> n_left:int -> fill:(int -> (int -> unit) -> unit) -> unit
(** One row-major pass that replaces the instance's rows with
    [n_left] new ones.  [fill] is called exactly once per row, in
    ascending [l], so a caller that draws from a PRNG inside [fill]
    keeps its draw order; [fill l emit] writes the neighbours of row
    [l] straight into the column array (in any order, duplicates
    allowed — the row is then sorted and deduplicated in place).
    O(edges + n_left), with no O(n_right) pass.  Short rows are
    insertion-sorted; long ones (a popular stripe's cache window) are
    radix-sorted, O(d) for a row of d entries.  One [emit] closure
    serves the whole rebuild, and the sort scratch lives in the
    instance, so once the buffers have grown the pass allocates
    nothing.  The number of rights and the capacity array are
    untouched; set capacities separately ({!set_right_caps}).
    @raise Invalid_argument on a negative [n_left] or if [fill] emits an
    out-of-range right. *)

val reserve : t -> n_left:int -> n_edges:int -> unit
(** Grow the buffers, if they are smaller, so that a {!rebuild_rows}
    of up to [n_left] rows writing up to [n_edges] entries (duplicates
    counted) allocates nothing.  The current rows are kept.
    @raise Invalid_argument on a negative size. *)

val n_left : t -> int
val n_right : t -> int

val n_edges : t -> int
(** Number of distinct edges. *)

val row_start : t -> int array
(** Borrowed; entries [0 .. n_left] are meaningful. *)

val col : t -> int array
(** Borrowed; entries [0 .. n_edges - 1] are meaningful.  Within a row,
    columns are in ascending order, so every solver that reads the rows
    breaks ties between maximum matchings the same way. *)

val right_cap_array : t -> int array
(** Borrowed; entries [0 .. n_right - 1] are meaningful. *)

val right_cap : t -> int -> int

val degree : t -> int -> int
(** Distinct-neighbour degree of a left vertex. *)

val mem : t -> left:int -> right:int -> bool
(** Linear scan of [left]'s row. *)
