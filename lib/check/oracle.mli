(** Differential oracles: independent implementations must agree.

    Two levels, mirroring the two layers whose correctness the paper's
    guarantees rest on:

    - {!solver_agreement}: the maximum-matching solvers of {!solvers}
      (the engine's CSR Dinic core, the legacy Dinic and push-relabel
      over an explicit flow network, slot-expansion Hopcroft–Karp, and
      min-cost flow) run on the same bipartite instance must report
      the same matched cardinality,
      each matching must replay as a valid assignment, and on deficit
      the Hall violator must be a checker-confirmed cut witness tight
      against the matching (König duality);
    - {!scheduler_agreement}: the simulator driven by the same demand
      script under the [Arbitrary], [Prefer_cache] and [Sticky]
      schedulers must report identical per-round matched counts: the
      schedulers only pick {e which} maximum matching.  Every failure
      round must yield a confirmed certificate.  Counts are compared up to and
      including the first failing round: beyond it the engines may
      legitimately stall {e different} requests, so the states (and
      hence later rounds) diverge. *)

val solvers : (string * (Vod_graph.Bipartite.t -> Vod_graph.Bipartite.outcome)) list
(** The solver panel, by name, in the order {!solver_agreement} runs
    it; the first entry ([dinic], {!Vod_graph.Bipartite.solve}) is the
    engine's matcher and the reference the Hall certificate is checked
    against. *)

val solver_agreement : Instance.t -> (int, string) result
(** The agreed matched cardinality, or a description of the first
    disagreement / invalid certificate. *)

type sched_outcome = {
  rounds_run : int;
  failure_rounds : int;  (** Rounds (of the arbitrary engine) with a deficit. *)
  certified_failure_rounds : int;
      (** Engine failure rounds (across all three lockstep engines) whose
          Hall certificate the checker independently confirmed. *)
}

val scheduler_agreement :
  params:Vod_model.Params.t ->
  fleet:Vod_model.Box.t array ->
  alloc:Vod_model.Allocation.t ->
  ?compensation:Vod_analysis.Theorem2.compensation ->
  rounds:int ->
  script:(int * int * int) list ->
  unit ->
  (sched_outcome, string) result
(** Drives the three scheduler engines in lockstep over the
    [(time, box, video)] demand script
    (busy boxes skipped, as in {!Vod_sim.Engine.run}). *)

type chaos_outcome = {
  rounds_to_quiesce : int;
  engine_installed : int;  (** Replicas installed by the live controller. *)
  oracle_added : int;  (** Replicas the static oracle added at a stroke. *)
  oracle_unrepairable : int;
}

val chaos_repair_agreement :
  params:Vod_model.Params.t ->
  fleet:Vod_model.Box.t array ->
  alloc:Vod_model.Allocation.t ->
  crashed:int list ->
  target_k:int ->
  ?config:Vod_fault.Mend.config ->
  ?seed:int ->
  ?max_rounds:int ->
  unit ->
  (chaos_outcome, string) result
(** The chaos-mode repair differential: crash the given boxes, run the
    engine with the bandwidth-aware controller ({!Vod_fault.Mend}) until
    it quiesces (at most [max_rounds], default 500), and replay the same
    loss through the static oracle {!Vod_alloc.Repair.repair} on the
    original allocation.  The two must agree stripe by stripe on the
    alive replica count clamped at [target_k] — engine-driven repair,
    for all its budgets, retries and matching contention, must converge
    to exactly the replication level the free-of-charge oracle
    certifies.  [Error] names the first diverging stripe, a failure to
    quiesce, or a controller/oracle accounting mismatch. *)
