(** Growable array (amortised O(1) push), used throughout the simulator
    for request queues, session lists and flow-network arcs. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** Logical clear; capacity is retained. *)

val ensure_capacity : 'a t -> int -> 'a -> unit
(** [ensure_capacity t n x] grows the backing store to hold at least [n]
    elements without further allocation (amortised doubling, capacity
    never shrinks).  [x] seeds the fresh cells; [length t] is unchanged.
    A no-op when the capacity already suffices.
    @raise Invalid_argument if [n < 0]. *)

val to_array : 'a t -> 'a array
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** [filter_in_place p t] keeps the elements satisfying [p], in their
    order, and drops the rest without allocating.  [p] is applied once
    to every element, first to last. *)

val to_list : 'a t -> 'a list
