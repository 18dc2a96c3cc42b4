(** A distributed stripe-location directory on top of {!Ring}.

    Each stripe id is a key; the ring node responsible for the key
    stores the list of boxes holding a replica.  Publishing and
    resolving cost the routing hops of the underlying lookup; the
    directory keeps aggregate hop statistics so experiments can verify
    the O(log n) scaling the DHT literature promises. *)

type t

val create : nodes:int list -> t
(** An empty directory over a ring of the given box ids. *)

val ring : t -> Ring.t

val publish : t -> origin:int -> stripe:int -> holder:int -> int
(** Register a replica; returns the routing hops spent.
    @raise Not_found when [origin] is not a ring member. *)

val publish_allocation :
  t -> iter_holders:(int -> (int -> unit) -> unit) -> total_stripes:int -> unit
(** Bulk-publish a whole allocation, whose [iter_holders s f] applies
    [f] to stripe [s]'s holders: each holder publishes its own replicas
    (origin = holder). *)

val resolve : t -> origin:int -> stripe:int -> int list * int
(** [(holders, hops)] — the registered holders of the stripe, resolved
    from [origin].  Unpublished stripes resolve to []. *)

val unpublish : t -> origin:int -> stripe:int -> holder:int -> int
(** Remove one holder registration; returns hops.  No-op if absent. *)

val node_leave : t -> int -> unit
(** The node departs: its ring segment (and the registrations it
    stored) transfers to its successor, as Chord prescribes.  Keys are
    re-homed, not lost.  @raise Invalid_argument on the last node. *)

val node_join : t -> int -> unit
(** A node joins and takes over its segment from its successor. *)

val stored_keys : t -> int -> int
(** Number of stripe entries stored at a node (load-balance metric). *)

val mean_lookup_hops : t -> float
(** Average hops over all {!publish}/{!resolve}/{!unpublish} calls so
    far; 0 when none were made. *)
