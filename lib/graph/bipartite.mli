(** Bipartite b-matching instances — the "connection matching" of the
    paper (Section 2.2).  Left vertices are stripe requests (each needs
    exactly one server), right vertices are boxes with an integral number
    of upload slots; an edge means the box possesses the data the request
    needs next round.

    Lemma 1 (min-cut max-flow / generalised Hall): a full matching exists
    iff every request subset [X] satisfies [slots(B(X)) >= |X|].  When no
    full matching exists, {!hall_violator} reads a violating set off the
    matching solve itself as an explicit infeasibility certificate. *)

type t

val create :
  n_left:int ->
  n_right:int ->
  right_cap:int array ->
  fill:(int -> (int -> unit) -> unit) ->
  t
(** A fresh instance whose row [l] is written by [fill l emit]: [emit r]
    declares that box [r] can serve request [l], in any order, and
    duplicate edges do not change the instance.  [fill] is called
    exactly once per row, in ascending [l] (see {!Csr.rebuild_rows}).
    The capacities are checked and copied.
    @raise Invalid_argument on negative sizes or capacities, when
    [right_cap] has length other than [n_right], or if [fill] emits an
    out-of-range box. *)

val rebuild :
  t -> n_left:int -> right_cap:int array -> fill:(int -> (int -> unit) -> unit) -> unit
(** Refill the instance in place for the next round, reusing every
    backing buffer — the engine's build, on the rounds its greedy walk
    cannot close.  Rows are written as
    by {!create}; the number of rights is unchanged and their
    capacities are copied from [right_cap] in one checked pass.  See
    {!Csr.rebuild_rows} for cost.
    @raise Invalid_argument as {!create}. *)

val n_left : t -> int
val n_right : t -> int
val right_cap : t -> int array

val csr : t -> Csr.t
(** The instance's flat CSR representation (borrowed: owned by the
    instance, invalidated by {!rebuild}; mutating it directly is not
    allowed).  This is what every solver here traverses; exposed
    so harnesses can call {!Dinic.solve_csr} directly. *)

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
    solve.  The engine's path on the rounds it builds; {!val:solve} is
    this plus a copy into fresh arrays. *)

val reserve : arena:Arena.t -> t -> n_left:int -> n_edges:int -> unit
(** Size the instance's buffers and the arena's slabs, if they are
    smaller, for a {!rebuild} of up to [n_left] rows writing up to
    [n_edges] entries (duplicates counted) and its
    {!val:solve_in_arena}, so that neither allocates.  The current rows
    are kept.  The engine calls this on the rounds its walk closes, so
    the buffers follow the run's size whether or not a round builds.
    @raise Invalid_argument on a negative size. *)

val outcome_of_arcs : t -> flow:(int -> int) -> int array -> outcome
(** [outcome_of_arcs t ~flow arc] reads a matching back from a flow
    network built over [t]: [arc.(e)] is the request -> box arc of CSR
    edge [e] (in {!Csr.col} order) and [flow a] the flow on arc [a].
    {!solve_min_cost} and the network oracles in [Vod_check] use it. *)

val solve_min_cost : t -> edge_cost:(left:int -> right:int -> int) -> outcome
(** Maximum matching of minimum total edge cost (successive shortest
    paths).  The matching size always equals {!solve}'s; among all
    maximum matchings the one minimising the sum of [edge_cost] over
    used request-to-box connections is returned.  Used by the engine's
    cost-aware schedulers.  [edge_cost] is called once per edge, row by
    row in ascending box order. *)

val solve_greedy :
  ?warm_start:int array ->
  rounds:int ->
  Vod_util.Prng.t ->
  t ->
  outcome
(** Distributed-flavoured matching by parallel proposal rounds: each
    unmatched request proposes to a uniformly random adjacent box with
    spare capacity; boxes accept proposals up to capacity (random
    subset when oversubscribed); accepted connections persist.  After
    [rounds] rounds the partial matching is returned.  A round in which
    some request can propose seats at least one, so after as many
    rounds as there are requests the matching is {e maximal}, hence at
    least half the optimum; with few rounds it models what boxes can
    negotiate without any global view.
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

val hall_violator : ?arena:Arena.t -> t -> violator option
(** [None] when the instance is feasible; otherwise a certificate set
    [X] with [slots(B(X)) < |X|].  One {!solve_in_arena} (through
    [arena] when given, like {!val:solve}), then a read of what the
    arena keeps after a deficient solve (see {!Dinic.solve_csr}): the
    lefts and rights the solve's last BFS phase reached.  [X] is the
    requests reachable by alternating paths from the requests the
    maximum matching leaves unserved, and [B(X)] the boxes those paths
    reach — the minimal minimum cut's source side, the same whichever
    maximum matching produced it.  Both lists are ascending.  The
    arena's previous result is overwritten. *)

val violator_in_arena : arena:Arena.t -> t -> violator
(** {!hall_violator}'s read alone, with no solve: the certificate of
    the deficient solve [arena] last ran, which must have been
    {!solve_in_arena} on [t] and must have left a request free (the
    arena is only read).  For a caller that has just made that solve
    and would otherwise pay for a second one. *)
