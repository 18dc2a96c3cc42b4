(** Exact counts of the words a computation allocates, on both heaps.

    On OCaml 5.1 each count has one exact reader: [Gc.minor_words] for
    the minor heap ([Gc.counters] divides its uncollected part by the
    word size a second time), and [Gc.counters] for the major and
    promoted words.  [Gc.quick_stat]'s major count leaves out an array
    made straight on the major heap until the next major slice (a
    24577-word copy reads as 0 there), and its minor count moves only
    at a minor collection. *)

val allocated : unit -> float
(** Words allocated so far by the calling domain: minor plus major less
    promoted, so an array too large for the minor heap counts once and
    a promoted block is not counted twice.  Subtract two readings for
    the words allocated in between; each reading itself allocates a few
    words. *)

val spent : (unit -> 'a) -> 'a * float
(** [spent f] runs [f] and returns its result with the words it
    allocated, net of what an empty window between two readings
    allocates itself. *)
