(** Dinic's maximum-flow algorithm specialised to connection matching:
    BFS level graph + blocking flows with the current-arc optimisation
    over the implicit bipartite network of a {!Csr.t}.  On these
    unit-capacity networks it runs in O(E sqrt(V)), matching
    Hopcroft–Karp.  It is the engine's only matcher (the engine runs
    its greedy first-fit pass itself, off the candidate lists, and
    calls this only on rounds that pass leaves a request free); the
    network solvers it is checked against live in [Vod_check]. *)

val reserve : arena:Arena.t -> n_left:int -> n_right:int -> n_edges:int -> unit
(** Grow the arena's slabs, if they are smaller, to what {!solve_csr}
    uses on an instance of up to [n_left] lefts, [n_right] rights and
    [n_edges] edges, so that such a solve grows no slab.
    @raise Invalid_argument on a negative size. *)

val solve_csr : arena:Arena.t -> Csr.t -> int
(** Dinic specialised to the implicit bipartite matching network
    (src -> lefts cap 1 -> rights via the CSR edges cap 1 -> sink with
    cap [right_cap]); no flow network is materialised.  Returns the
    flow value (= matching size); the assignment and per-right loads are
    left in [Arena.assignment] / [Arena.right_load] (borrowed, valid
    until the arena's next solve).  All scratch lives in the arena.  A
    greedy first-fit pass seeds the matching; the reverse-residual
    transpose, the BFS levels and the DFS closure are built only when
    it leaves a request free.  So on a grown arena a solve that greedy
    saturates costs O(n_left + n_right + scanned edges) and allocates
    nothing, and one that runs augmenting phases allocates only that
    closure (18 words, 144 bytes).

    After a deficient solve (one that leaves a left free) the arena also
    keeps the reach of the last BFS phase, the one that found no
    augmenting path: [Arena.queue] entries [0 .. reached - 1] are the
    lefts it levelled, in visit order, and [Arena.right_queue] entries
    [0 .. reached_right - 1] the rights it visited, in visit order.
    Together they are the alternating closure of the free lefts: a
    Hall violator, which {!Bipartite.violator_in_arena} reads off.
    After a solve that seats every left they mean nothing. *)
