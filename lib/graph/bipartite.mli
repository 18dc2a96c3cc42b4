(** Bipartite b-matching instances — the "connection matching" of the
    paper (Section 2.2).  Left vertices are stripe requests (each needs
    exactly one server), right vertices are boxes with an integral number
    of upload slots; an edge means the box possesses the data the request
    needs next round.

    Lemma 1 (min-cut max-flow / generalised Hall): a full matching exists
    iff every request subset [X] satisfies [slots(B(X)) >= |X|].  When no
    full matching exists, {!hall_violator} extracts a violating set from
    the minimum cut as an explicit infeasibility certificate. *)

type t

val create : n_left:int -> n_right:int -> right_cap:int array -> t
(** @raise Invalid_argument on negative sizes or capacities, or when
    [right_cap] has length other than [n_right]. *)

val reset : t -> n_left:int -> n_right:int -> right_cap:int array -> unit
(** Rewind to an empty instance of the given (possibly different) shape,
    reusing every backing buffer; once buffers reach their high-water
    mark a reset + refill through {!add_edge} allocates nothing.  The
    capacities are checked and copied in one pass.  Same validation as
    {!create}. *)

val rebuild :
  t -> n_left:int -> right_cap:int array -> fill:(int -> (int -> unit) -> unit) -> unit
(** Rebuild the instance for the next round in one row-major pass —
    the engine's only per-round build.  Row [l] is written by
    [fill l emit] straight into the CSR column array.  The number of
    rights is unchanged and their capacities are copied from
    [right_cap] in one checked pass.  See {!Csr.rebuild_rows} for cost
    and the frozen-instance caveat ({!add_edge} raises until the next
    {!reset}).
    @raise Invalid_argument as {!reset}, or as {!Csr.rebuild_rows}. *)

val add_edge : t -> left:int -> right:int -> unit
(** Declares that box [right] can serve request [left].  Duplicate edges
    are tolerated (they do not change the instance).
    @raise Invalid_argument on out-of-range endpoints. *)

val n_left : t -> int
val n_right : t -> int
val right_cap : t -> int array

val csr : t -> Csr.t
(** The instance's flat CSR representation, finalized (borrowed: owned
    by the instance, invalidated by {!reset}; mutating it directly is
    not allowed).  This is what {!Dinic.solve_csr} traverses; exposed
    so harnesses can call it without an adjacency materialisation. *)

val adjacency : t -> int array array
(** Left-to-right adjacency, sorted per row with duplicates removed
    (memoised; allocated on first use — the legacy/certificate view). *)

val degree : t -> int -> int
(** Number of distinct boxes able to serve a request. *)

type outcome = {
  matched : int;  (** Number of requests served. *)
  assignment : int array;  (** request -> serving box, or -1. *)
  right_load : int array;  (** Slots used per box. *)
}

val solve : ?arena:Arena.t -> t -> outcome
(** Maximum matching by the CSR Dinic core ({!Dinic.solve_csr}), the
    engine's only matcher.  Pass [arena] (one per engine / harness /
    parallel task — arenas are not domain-safe) to reuse the scratch
    buffers across calls, otherwise a fresh arena is allocated.  The
    returned [outcome] arrays are freshly allocated and owned by the
    caller either way. *)

val solve_in_arena : arena:Arena.t -> t -> int
(** {!val:solve} without the copies: returns the matching size and
    leaves the result in the arena — [Arena.assignment arena] (entries
    [0 .. n_left - 1]) and [Arena.right_load arena] (entries
    [0 .. n_right - 1]), borrowed and valid until the arena's next
    solve.  The engine's per-round path; {!val:solve} is this plus a
    copy into fresh arrays. *)

type algorithm = Dinic_flow | Push_relabel_flow | Hopcroft_karp_matching

val solve_legacy : algorithm:algorithm -> t -> outcome
(** The historical solver paths — an explicit {!Flow_network} for
    {!Dinic_flow} / {!Push_relabel_flow} and slot expansion for
    {!Hopcroft_karp_matching} — kept as independent implementations for
    the vod_check oracle panel to diff against {!solve}. *)

val solve_min_cost : t -> edge_cost:(left:int -> right:int -> int) -> outcome
(** Maximum matching of minimum total edge cost (successive shortest
    paths).  The matching size always equals {!solve}'s; among all
    maximum matchings the one minimising the sum of [edge_cost] over
    used request-to-box connections is returned.  Used by the engine's
    cache-preferring scheduler. *)

val solve_greedy :
  ?until_stable:bool ->
  ?warm_start:int array ->
  rounds:int ->
  Vod_util.Prng.t ->
  t ->
  outcome
(** Distributed-flavoured matching by parallel proposal rounds: each
    unmatched request proposes to a uniformly random adjacent box with
    spare capacity; boxes accept proposals up to capacity (random
    subset when oversubscribed); accepted connections persist.  After
    [rounds] rounds (or, with [until_stable], once no proposal can be
    made) the partial matching is returned.  When stable the matching
    is {e maximal}, hence at least half the optimum; with few rounds it
    models what boxes can negotiate without any global view.
    [warm_start] pre-seats requests on their previous servers (entries
    are box ids or -1; invalid or over-capacity seats are ignored) —
    persistent connections, as a deployed system would keep. *)

val is_feasible : t -> bool
(** True iff every request can be served simultaneously. *)

type violator = {
  requests : int list;  (** The set X of requests. *)
  servers : int list;  (** B(X): every box adjacent to X. *)
  server_slots : int;  (** Total upload slots of B(X), < |X|. *)
}

val hall_violator : t -> violator option
(** [None] when the instance is feasible; otherwise a certificate set
    [X] with [slots(B(X)) < |X|], extracted from the min cut of one
    maximum flow over uncuttable request-to-box arcs.  [X] is the
    minimal minimum cut's request side: the requests reachable by
    alternating paths from the requests any maximum matching leaves
    unserved, whichever maximum matching that is. *)
