(** [int array] operations without the per-call closure and per-element
    polymorphic [compare] of their [Array] counterparts, for loops that
    run once per request or per box. *)

val mem : int -> int array -> bool
(** [mem x a] is [Array.mem x a]; it allocates nothing. *)
