(** The long-running service mode: an event-driven admission /
    backpressure / recovery loop wrapped around {!Vod_sim.Engine}.

    Where {!Vod_fault.Chaos} replays a precompiled fault plan against
    the batch simulator, [Serve] runs the system as a {e service}: a
    deterministic virtual-time event queue carries continuous arrivals
    (Poisson, Zipf or trace-driven through {!Vod_workload.Generators}),
    per-client sessions step through the {!Session} state
    machine, and an admission controller decides each round who enters
    the matching:

    - {b admission}: a token bucket (sized from the Theorem 1 capacity
      estimate by default) gates the arrival rate, a measured-headroom
      check ([online upload slots - reserve - c * live sessions]) gates
      total load, and the paper's per-video swarm-growth bound [mu]
      gates per-title bursts;
    - {b backpressure}: arrivals wait in a bounded queue; on overflow
      the entry with the {e oldest deadline} is shed terminally;
      entries that out-wait their patience re-enter through the retry
      path;
    - {b recovery}: retries use a seedable decorrelated-jitter
      {!Vod_util.Backoff} with a per-session budget; re-admission is
      idempotent (the session keeps its identity, so stats never
      double-count a retried viewer);
    - {b degradation}: when measured headroom collapses (e.g. a group
      outage) the service trips to [Degraded] and sheds {e sessions} by
      policy — newest first, lowest priority first, or helper-first
      (draft standby helper upload before dropping any viewer) —
      instead of letting admitted viewers stall.

    {b Determinism contract} (same as chaos/battery): the [vod-serve/1]
    and [vod-slo/1] streams are pure functions of
    [(scenario, rounds, seed, config, arrivals)] — round-indexed
    clocks, integer counters, fixed-point floats, replication [i] at
    [seed + 1000 * i], outputs concatenated in replication order — so
    they are byte-identical at any [--jobs] value. *)

module Scenario = Vod_fault.Scenario
module Slo = Vod_obs.Slo

type shed_policy =
  | Newest_first  (** Drop the most recently admitted session first. *)
  | Lowest_priority
      (** Drop flash-crowd (priority 0) sessions before background
          (priority 1) ones; ties break newest-first. *)
  | Helper_first
      (** Draft offline standby helpers for upload relief first; shed
          newest-first only if headroom is still negative. *)

val shed_policy_name : shed_policy -> string
val shed_policy_of_name : string -> (shed_policy, string) result
(** ["newest-first"], ["lowest-priority"], ["helper-first"]. *)

type config = {
  queue_cap : int;  (** Bounded arrival-queue length. *)
  tokens_per_round : int option;
      (** Token-bucket refill; [None] derives
          [max 1 (slots - reserve) / (c * (duration + 2))] — the
          steady-state admission rate the capacity estimate sustains. *)
  token_burst : int option;  (** Bucket depth; [None] = 4 * refill. *)
  headroom_margin : float;
      (** Fraction of online upload slots held back from admission (on
          top of the repair budget), in [0, 1). *)
  startup_deadline : int;
      (** Rounds an admitted session may wait for its first chunk
          before it is cancelled into the retry path. *)
  queue_patience : int;
      (** Rounds an arrival may wait in the queue before expiring into
          the retry path. *)
  retry_budget : int;  (** Max retries per session before it is dropped. *)
  backoff_base : int;  (** First retry delay, in rounds. *)
  backoff_cap : int;
  shed_policy : shed_policy;
}

val default_config : config
(** [queue_cap 256], derived tokens, [headroom_margin 0.1],
    [startup_deadline 8], [queue_patience 12], [retry_budget 3],
    [backoff 2 16], [Newest_first]. *)

val config :
  ?queue_cap:int ->
  ?tokens_per_round:int ->
  ?token_burst:int ->
  ?headroom_margin:float ->
  ?startup_deadline:int ->
  ?queue_patience:int ->
  ?retry_budget:int ->
  ?backoff_base:int ->
  ?backoff_cap:int ->
  ?shed_policy:shed_policy ->
  unit ->
  config
(** {!default_config} with overrides.
    @raise Invalid_argument on non-positive sizes, [cap < base] or a
    margin outside [0, 1). *)

type arrivals =
  | Scenario_rate  (** Poisson at the scenario's [rate] (uniform videos). *)
  | Poisson of float  (** Poisson at the given rate (uniform videos). *)
  | Zipf of { rate : float; s : float }  (** Poisson arrivals, Zipf titles. *)
  | Trace of (int * int * int) list  (** Replay [(round, box, video)]. *)

val arrivals_of_name : string -> (arrivals, string) result
(** ["scenario"], ["poisson:R"], ["zipf:R:S"] — the [--arrivals]
    syntax ([Trace] comes from a file, not a name). *)

type totals = {
  arrivals : int;  (** Distinct sessions created (flash included). *)
  flash_arrivals : int;
  admitted : int;  (** Grants, re-admissions included. *)
  completed : int;
  shed : int;
  rejected : int;
  retries : int;  (** Retry joins fired. *)
  retry_sessions : int;  (** Distinct sessions that ever retried. *)
  retry_budget : int;  (** The config's per-session budget (for {!verdict_ok}). *)
  interrupted : int;  (** Sessions knocked back by box loss. *)
  expired : int;  (** Queue-patience expiries. *)
  overflow_shed : int;  (** Oldest-deadline-first queue overflow drops. *)
  overload_shed : int;  (** Degraded-state policy sheds of live sessions. *)
  helpers_drafted : int;  (** Helper boxes brought online by [Helper_first]. *)
  stalled_rounds : int;  (** Rounds with unserved viewer requests. *)
  total_unserved : int;  (** Sum of unserved viewer requests — the stall count. *)
  max_queue : int;
  degraded_rounds : int;
}

type outcome = {
  scenario : Scenario.t;
  seed : int;
  rounds : int;
  totals : totals;
  live_at_end : int;  (** Sessions not yet terminal when the run ended. *)
  slo : Slo.summary list;
  jsonl : string;  (** The [vod-serve/1] stream: meta, rounds, verdict. *)
  slo_jsonl : string;  (** The [vod-slo/1] stream. *)
}

val validate : Scenario.t -> (unit, string) result
(** {!Vod_fault.Driver.validate}: the service shares the scenario
    format and system build. *)

val run :
  ?rounds:int ->
  ?seed:int ->
  ?config:config ->
  ?arrivals:arrivals ->
  Scenario.t ->
  (outcome, string) result
(** One replication.  The scenario's fault events drive the running
    service (crashes, group outages, degrades, flash crowds as arrival
    bursts through admission); {!Vod_fault.Mend} self-heals
    replication underneath.  [Error] on an invalid scenario. *)

val run_many :
  ?rounds:int ->
  ?jobs:int ->
  ?config:config ->
  ?arrivals:arrivals ->
  replications:int ->
  Scenario.t ->
  (outcome list, string) result
(** Independent replications (replication [i] at [seed + 1000 * i])
    over {!Vod_par.Par.map}; outcomes in replication order. *)

val verdict_ok : outcome -> bool
(** The graceful-degradation contract: zero stalls among admitted
    sessions ([total_unserved = 0]) and retry convergence
    ([retries <= retry_budget * retry_sessions] — no retry storm). *)

val slo_breached : outcome -> bool
(** Some compiled SLO ended in [Breach]. *)
