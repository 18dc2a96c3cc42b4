(** Access-network topology: boxes grouped behind aggregation points
    (DSLAMs / OLTs).  Traffic between two boxes of the same group stays
    on the aggregation switch; cross-group traffic crosses the ISP
    backbone.  The scheduler can exploit this (engine scheduler
    [Prefer_local]) since any maximum matching is as good as any other
    for the model — locality is free. *)

type t

val uniform_groups : n:int -> groups:int -> t
(** Boxes assigned round-robin: box [b] joins group [b mod groups].
    @raise Invalid_argument unless [1 <= groups <= n]. *)

val n : t -> int
val groups : t -> int
val group_of : t -> int -> int
val same_group : t -> int -> int -> bool

val cost : t -> int -> int -> int
(** 0 within a group, 1 across groups — the min-cost scheduler's
    objective coefficient. *)

val group_members : t -> int -> int list
