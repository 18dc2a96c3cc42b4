(** Reusable solver arena: every scratch buffer the CSR matching core
    ({!Dinic.solve_csr}) needs, grown with amortised doubling and never
    shrunk.

    An arena is allocated once (per engine, per bench harness, per sweep
    task — arenas are NOT domain-safe, each parallel task owns its own)
    and passed to [Dinic.solve_csr] or [Bipartite.solve ~arena].  Once
    every slab has reached the high-water mark of the instances being
    solved, repeat solves allocate nothing.

    Slabs are deliberately exposed: the solver lives in this library and
    indexes the raw arrays on its hot paths.  Outside code should treat
    everything except [assignment] / [right_load] / [words] as private.

    Slab discipline: [ints slab n] returns the backing array grown to at
    least [n] cells.  Newly grown cells are zero but surviving cells
    keep whatever the previous solve left behind — a "dirty" arena —
    so the solver initialises the prefix it reads.  This is what makes
    solving the same instance twice through a dirty arena deterministic
    (property-tested in [test_graph]). *)

type slab = { mutable buf : int array }
type bitslab = { mutable bits : Vod_util.Bitset.t }

type t = {
  (* results of the last solve *)
  assignment : slab;  (** per left: matched right or -1 *)
  right_load : slab;  (** per right: seats taken *)
  (* Dinic (implicit bipartite network) *)
  queue : slab;  (** BFS worklist *)
  level : slab;
  it_left : slab;
  it_right : slab;
  matched_edge : slab;  (** per left: CSR edge id carrying its unit, or -1 *)
  t_row_start : slab;  (** CSR transpose: per right, first incoming edge *)
  t_packed : slab;  (** transpose payload, packed [(left lsl 31) lor edge_id] *)
  (* word-parallel BFS scratch *)
  free_left : bitslab;  (** lefts still unmatched *)
  free_right : bitslab;  (** rights with a free seat *)
  frontier : bitslab;  (** rights reached by the layer being expanded *)
  visited_right : bitslab;  (** rights absorbed by earlier layers *)
  mutable reached : int;  (** lefts of the last BFS phase, at the head of [queue] *)
}

val create : unit -> t
(** A fresh arena with every slab empty. *)

val ints : slab -> int -> int array
(** [ints slab n] grows [slab] to at least [n] cells (power-of-two
    doubling; newly grown cells are 0, surviving cells are dirty) and
    returns the backing array.  Borrowed: valid until the next growth. *)

val bits : bitslab -> int -> Vod_util.Bitset.t
(** [bits bitslab n] grows [bitslab] to capacity at least [n] (same
    power-of-two schedule as [ints], so bitslabs requested with equal
    [n] share a capacity and the word-sweep operations accept them
    together) and returns the bitset.  Dirty like [ints]: the solver
    must [clear] or [set_prefix] before reading.  Borrowed: valid until
    the next growth. *)

val assignment : t -> int array
(** Backing array of the last solve's assignment (borrowed; entries
    [0 .. n_left - 1] are meaningful). *)

val right_load : t -> int array
(** Backing array of the last solve's right loads (borrowed; entries
    [0 .. n_right - 1] are meaningful). *)

val words : t -> int
(** Total cells currently allocated across all slabs — a stabilising
    [words] across rounds is the zero-allocation steady state. *)
