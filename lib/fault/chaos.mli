(** Chaos runs: execute a {!Scenario} — build the system, compile its
    fault {!Plan}, drive the engine round by round applying events and
    background load while {!Mend} self-heals — and emit a deterministic
    JSONL verdict stream.

    {b Determinism contract:} the JSONL output — the [vod-chaos/1]
    round stream {e and} the [vod-slo/1] verdict stream — is a pure
    function of [(scenario, rounds, seed)].  Both are assembled only
    from engine reports and controller state (never from the shared
    metrics registry or wall time); every number is an integer, a
    verbatim scenario field, or a fixed-point [%.4f] float derived
    from integer sums over round-indexed windows; and replications get
    independent seeded streams combined in replication order — so two
    runs of the same scenario, at any [--jobs] value, are
    byte-identical. *)

type engine_config = {
  label : string;  (** Appears as ["config"] in the meta line and the scorecard. *)
  scheduler : Vod_sim.Engine.scheduler;
  scheme : Vod_alloc.Schemes.scheme;  (** Static allocation scheme for the base fleet. *)
}
(** One engine/allocation column of a battery matrix. *)

val default_config : engine_config
(** ["scratch"]: max-flow from scratch, arbitrary scheduler, random
    permutation allocation — the engine's defaults. *)

val config_of_name : string -> (engine_config, string) result
(** Named configs: [scratch], [sticky], [prefer-cache],
    [balance-load], [round-robin]. *)

type outcome = {
  scenario : Scenario.t;
  seed : int;  (** The seed this replication actually ran with. *)
  reports : Vod_sim.Engine.round_report list;
  stats : Mend.stats;
  recovered : bool;
      (** The controller quiesced with nothing left to repair {e and} no
          stripe was permanently lost: full target replication holds. *)
  unrepairable : int;  (** Stripes beyond repair at the end. *)
  full_replication_round : int;
      (** First round at/after the last disruptive event with every
          stripe back at [target_k] alive replicas; -1 if never. *)
  time_to_full_replication : int;
      (** Rounds from the last disruptive event to full replication;
          -1 if never reached. *)
  min_online : int;  (** Fewest online boxes over the run (helpers included). *)
  total_unserved : int;
  total_faulted : int;
  startup_delays : int array;
      (** Realised start-up delays of every admitted demand, in rounds
          ({!Vod_sim.Engine.startup_delays}) — the scorecard's
          startup-latency sample. *)
  jsonl : string;  (** One meta line, one line per round, one verdict. *)
  slo : Vod_obs.Slo.summary list;
      (** Burn summaries of the SLOs compiled from the scenario's KPI
          budgets (see below); empty when no budget compiles. *)
  slo_jsonl : string;
      (** The [vod-slo/1] stream: meta line (with the compiled specs),
          a verdict line for the first round and for every round whose
          state changed, then one [slo-summary] line per spec. *)
}

type tick = {
  t_report : Vod_sim.Engine.round_report;
  t_under : int;  (** Under-replicated stripes after the round. *)
  t_unrepairable : int;
  t_in_flight : int;  (** Repair transfers currently running. *)
  t_installs : int;  (** Replicas installed this round. *)
  t_slos : Vod_obs.Slo.t list;  (** Live evaluators, spec order. *)
}
(** What a [?on_round] observer sees after each round — the
    [vodctl top] dashboard feed. *)

val validate : Scenario.t -> (unit, string) result
(** {!Driver.validate}: plan compilation, catalog fit against the base
    fleet, flash-crowd videos inside the catalog. *)

val run :
  ?rounds:int ->
  ?seed:int ->
  ?config:engine_config ->
  ?on_round:(tick -> unit) ->
  Scenario.t ->
  (outcome, string) result
(** Run one replication ([rounds]/[seed] override the scenario's;
    [config] defaults to {!default_config}).

    The scenario's rate-style KPI budgets compile to burn-rate SLOs on
    the default 100/1000-round windows: [max-rejection r] to
    ["rejection"] (bad = unserved, total = served + unserved, target
    [r]); [max-startup-p95 L] to ["startup"] (bad = new startups
    slower than [L] rounds, total = new startups, target 0.05 — the
    p95 tail budget); [max-sourcing-share s] to ["sourcing"] (bad =
    connections sourced from static replicas, total = served, target
    [s]).  [max-time-to-repair] and [require-recovery] are terminal
    conditions, not per-round rates, and stay KPI-only, as do budgets
    outside (0, 1].

    [on_round] observes each completed round (report, repair backlog,
    live SLO evaluators).  It must not mutate the engine or scenario:
    the callback exists for dashboards and progress meters, and the
    determinism contract assumes the run is a closed system.  The system
    is {!Driver.create}'s, under [config]'s scheduler and scheme; a
    flash crowd demands its video directly from the idle boxes it
    lands on.  [Error] on an invalid scenario, as {!validate}. *)

val run_many :
  ?rounds:int ->
  ?jobs:int ->
  ?config:engine_config ->
  replications:int ->
  Scenario.t ->
  (outcome list, string) result
(** [replications] independent runs through {!Driver.replicate}
    (replication [i] at seed [scenario.seed + 1000 * i], outcomes in
    replication order at any [jobs]). *)

val verdict_ok : outcome -> bool
(** The run's pass criterion: full target replication was restored
    ([recovered]). *)
