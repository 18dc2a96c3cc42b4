(** A Chord-style consistent-hashing ring, simulated at the routing
    level.  The paper assumes boxes can locate the holders of any
    stripe (citing the DHT literature for the mechanism); this module
    provides that substrate and measures its cost: greedy
    finger-table routing reaches the responsible node in O(log n)
    hops.

    Identifiers live on a 30-bit ring; node positions are derived from
    box ids by a SplitMix64-based hash, so the ring is deterministic
    for a given fleet. *)

type t

val create : nodes:int list -> t
(** Ring over the given box ids.  @raise Invalid_argument on an empty
    or duplicated node list. *)

val hash_key : int -> int
(** Position of a key (e.g. a stripe id) on the ring. *)

val node_position : t -> int -> int
(** Ring position of a member node.  @raise Not_found if absent. *)

val members : t -> int list
(** Node ids, in ring order. *)

val successor_of_key : t -> int -> int
(** The node responsible for a key: the first node at or after the
    key's position (wrapping). *)

val lookup : t -> origin:int -> key:int -> int * int
(** [(responsible, hops)] of greedy finger routing from [origin].
    [hops] counts routing messages (0 when the origin is itself
    responsible).  @raise Not_found when [origin] is not a member. *)

val join : t -> int -> t
(** Ring with one more node (fingers rebuilt).
    @raise Invalid_argument if already present. *)

val leave : t -> int -> t
(** Ring without the node.  @raise Invalid_argument when absent or when
    it is the last node. *)
