(** The maintenance controller: bandwidth-aware self-healing repair.

    {!Vod_alloc.Repair.repair} tops replicas up {e for free} — a static
    oracle that ignores where the bytes come from.  [Mend] closes that
    gap: it watches {!Vod_alloc.Repair.under_replicated} and schedules
    re-replication as real {!Vod_sim.Engine.Repair_transfer} requests
    inside the per-round connection matching, so every repair byte
    competes with viewer traffic for donor upload slots.  A configurable
    budget caps concurrent transfers (the repair-bandwidth budget), and
    a per-stripe exponential backoff spaces retries out when donors are
    saturated or dead.

    Drive it in lockstep with the engine: {!tick} {e before}
    [Engine.step] (reap lost transfers, schedule new ones), {!collect}
    {e after} (install completed replicas via [Engine.set_alloc]).

    Determinism: destination choice draws from the controller's own
    PRNG in a pinned order (ascending stripe id, one shuffle over the
    ascending-box-id candidate array — the same contract as the static
    oracle), so a chaos run is a pure function of its seeds. *)

type config = {
  target_k : int;  (** Replication level to restore. *)
  budget : int;  (** Max concurrent repair transfers. *)
  transfer_rounds : int;
      (** Rounds of matched service one transfer needs — the stripe
          size over the per-connection bandwidth, in round units. *)
  backoff_base : int;
      (** First retry delay, in rounds; doubles per failed attempt. *)
  backoff_cap : int;  (** Upper bound on the retry delay. *)
}

val config :
  ?budget:int ->
  ?transfer_rounds:int ->
  ?backoff_base:int ->
  ?backoff_cap:int ->
  target_k:int ->
  unit ->
  config
(** Defaults: [budget 4], [transfer_rounds 5], [backoff 2..32].  An
    in-flight transfer that has not finished [3 * transfer_rounds]
    rounds after it started (a grace of twice its own length) is
    aborted and retried elsewhere.
    @raise Invalid_argument on non-positive fields or [cap < base]. *)

val of_scenario : Scenario.t -> config
(** The scenario's repair directives as a config. *)

type t

val create : ?seed:int -> config -> t
(** A fresh controller (default seed 42). *)

type stats = {
  started : int;  (** Transfers injected into the matching. *)
  completed : int;  (** Transfers that finished their service rounds. *)
  aborted : int;  (** Transfers lost to dest crashes or timeouts. *)
  retries : int;  (** Starts that were re-attempts after a failure. *)
  installed : int;  (** Replicas installed into the allocation. *)
  in_flight : int;  (** Currently active transfers. *)
}

val stats : t -> stats

val tick : t -> Vod_sim.Engine.t -> unit
(** Run the maintenance pass for the upcoming round: abort transfers
    whose destination died or that overran their deadline (scheduling a
    backed-off retry), detect under-replicated stripes, and inject new
    transfers — donors alive, destination alive with a free storage
    slot, budget permitting.  Call {e before} [Engine.step]. *)

val collect : t -> Vod_sim.Engine.t -> int
(** Drain the engine's completed transfers and install the new replicas
    as one allocation swap ({!Vod_model.Allocation.add_replicas}: the
    untouched rows are shared); returns how many were installed.  A
    replica the allocation already holds is not installed again.  Call
    {e after} [Engine.step]. *)

val pending : t -> Vod_sim.Engine.t -> int list * int list
(** [(repairable, unrepairable)] — the under-replicated stripes right
    now, split by whether repair is currently possible: a stripe is
    repairable when some alive box holds a replica (donor) {e and} some
    alive non-holder has a free storage slot (destination).  Both lists
    ascend.  The under-replicated list is recomputed only when
    [Engine.box_epoch] moved since the last call (for [tick] or
    [pending]); otherwise an empty list answers at once. *)

val quiesced : t -> Vod_sim.Engine.t -> bool
(** No transfer in flight and no repairable stripe left — the
    controller has done all it can (what remains is unrepairable until
    boxes rejoin).  The qcheck convergence property drives rounds until
    this holds, then asserts every stripe with a surviving replica
    reached [target_k]. *)
