(** FIFO push–relabel maximum flow with the gap heuristic.  Implemented
    independently of {!Dinic_flow} so the two can cross-validate each
    other on every connection-matching instance (experiment E9). *)

val max_flow : Flow_network.t -> src:int -> sink:int -> int
(** Computes a maximum flow destructively and returns its value.
    @raise Invalid_argument if [src = sink] or either is out of range. *)
