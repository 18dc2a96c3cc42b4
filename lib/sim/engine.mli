(** The round-based Video-on-Demand simulator.

    This implements the paper's model verbatim (Section 1.1):

    - time is discrete; one round = connection set-up time;
    - when a box demands video [v] in interval [t-1, t) it issues one
      {e preloading} request at [t] for stripe number
      [counter(v) mod c] (a per-video round-robin counter balances
      preload stripes), then [c-1] {e postponed} requests at [t+1];
      start-up delay is hence 3 rounds;
    - each stripe request is served for [T] consecutive rounds (one
      position per round);
    - at every round the engine builds the bipartite graph linking each
      request to the boxes possessing the data it needs next round —
      the boxes storing the stripe per the static allocation, plus the
      boxes whose own request for the same stripe was issued earlier
      and within the playback-cache window [t - T <= t_j < t_i]
      (Section 2.2) — and computes a connection matching by maximum
      flow, box [b] having [floor (u_b * c)] upload slots;
    - a round {e fails} when the matching cannot serve every request;
      matched requests progress, unmatched ones stall, and a Hall
      violator certificate can be extracted.

    Heterogeneous relaying (Section 4, Theorem 2) is supported by
    passing a compensation: each poor box routes its preload and tail
    postponed requests through its rich relay on the doubled time
    scale; statically reserved relay upload is excluded from the
    matching capacity. *)

open Vod_model

type kind =
  | Preload
  | Postponed
  | Relayed_preload
  | Relayed_postponed
  | Repair_transfer
      (** A re-replication copy scheduled by the maintenance controller
          ({!Vod_fault.Mend}): it competes for donor upload slots in the
          connection matching like any stripe request, but its owner is
          the {e destination} box of the new replica, it never makes
          that box busy, and it stays out of the swarm, cache-window and
          start-up accounting. *)

type failure_policy =
  | Fail_fast  (** Raise {!Defeated} on the first imperfect matching. *)
  | Continue  (** Record the failure; unmatched requests stall. *)

type scheduler =
  | Arbitrary  (** Any maximum matching (plain max flow). *)
  | Prefer_cache
      (** Among maximum matchings, minimise the number of connections
          served from static replicas (min-cost flow with cost 1 on
          allocation edges): keeps sourcing capacity free for
          newcomers. *)
  | Sticky
      (** Among maximum matchings, minimise connection churn: keeping
          last round's server costs 0, rewiring costs 1.  One round is
          by definition the connection set-up time, so rewirings are
          the system's real overhead. *)
  | Greedy_proposals of int
      (** Decentralised scheduling: the given number of parallel
          proposal/acceptance negotiation rounds instead of a global
          max-flow — what boxes can actually compute without a
          coordinator.  Not guaranteed maximum, so some requests may
          stall even in feasible systems; the gap is the price of
          decentralisation (experiment E15). *)
  | Prefer_local
      (** Among maximum matchings, minimise cross-group traffic using
          the topology supplied at {!create}. *)
  | Balance_load
      (** Among maximum matchings, minimise the total historical load of
          the chosen servers — a long-run forwarding-load balancer. *)

type round_report = {
  time : int;
  new_demands : int;
  active_requests : int;  (** Active viewer requests (repairs counted apart). *)
  served : int;  (** Viewer requests that made progress this round. *)
  unserved : int;  (** Viewer requests that stalled (unmatched or faulted). *)
  served_from_cache : int;
      (** Connections whose server holds the data only in its playback
          cache — the "swarming" share; the rest is "sourcing" from the
          static allocation. *)
  rewired : int;
      (** Served requests whose server differs from the previous
          round's — each costs a connection set-up. *)
  cross_group : int;
      (** Served connections crossing topology groups (0 when no
          topology was supplied). *)
  busy_boxes : int;
  offline_boxes : int;  (** Boxes offline (crashed) during the round. *)
  faulted : int;
      (** Matched connections dropped by a transient link fault
          ({!set_link_faults}) — the slot was consumed but no data
          arrived, so the request stalled.  [unserved - faulted] (when
          non-negative) is the stall count attributable to matching
          infeasibility rather than to injected faults. *)
  repair_active : int;  (** Repair transfers in the round's matching. *)
  repair_served : int;
      (** Repair transfers that made progress this round — each consumed
          one donor upload slot that viewer requests could otherwise
          have used. *)
}

exception Defeated of round_report

val report_fields : (string * (round_report -> int)) list
(** The report's scalar fields, in canonical order, each with an
    accessor — the single source of truth from which {!Metrics.to_csv}
    derives its header and rows and {!pp_report} its output.  Adding a
    field to {!round_report} only requires extending this list. *)

val pp_report : Format.formatter -> round_report -> unit
(** Renders a report as [{time=3; new_demands=2; ...}] following
    {!report_fields}. *)

type t

val create :
  params:Params.t ->
  fleet:Box.t array ->
  alloc:Allocation.t ->
  ?compensation:Vod_analysis.Theorem2.compensation ->
  ?policy:failure_policy ->
  ?preloading:bool ->
  ?scheduler:scheduler ->
  ?topology:Topology.t ->
  unit ->
  t
(** [preloading] (default true) enables the paper's preloading strategy
    (staggered requests + per-video stripe counter); disabling it makes
    every box request all [c] stripes at once — the naive strategy the
    paper's Lemma 2 analysis rules out, kept as an ablation.
    A [topology] enables cross-group traffic accounting and the
    [Prefer_local] scheduler.  The engine keeps [alloc] itself, and
    {!install} changes it in place: pass an {!Allocation.copy} to keep
    the original.
    @raise Invalid_argument when fleet size, allocation, topology and
    params disagree, or [Prefer_local] is chosen without a topology. *)

val params : t -> Params.t
val fleet : t -> Box.t array
val alloc : t -> Allocation.t
val now : t -> int

val is_idle : t -> int -> bool
(** True when the box is online, has no video in progress and no demand
    pending for the next step, so it may accept a demand.  O(1). *)

val idle_boxes : t -> int array
(** Idle online boxes that may be drafted as viewers, in ascending
    order.  Helper boxes ({!set_helper}) are excluded — they are
    upload-only peers — so the demand generators built on this array
    never target them.  The array is fresh: the caller may shuffle it.
    O(n). *)

val borrow_idle : t -> int array * int
(** [borrow_idle t] is [(buf, len)]: the boxes {!idle_boxes} returns,
    written into [buf.(0 .. len - 1)], with no allocation.  [buf] is
    the engine's own scratch, so the caller may shuffle or overwrite
    its prefix, but it is only valid until the next [borrow_idle] or
    {!idle_boxes}.  One sequential compare per box. *)

(** {2 Helper boxes (plug-and-play spare upload)}

    A {e helper} is a box that contributes upload (and whatever replicas
    the allocation seeds onto it) but never watches anything — the
    plug-and-play helpers of peer-assisted VoD deployments.  Marking a
    box as a helper only gates demand admission: {!demand} rejects it,
    {!idle_boxes} skips it and {!run} drops generator demands on it
    silently.  Everything else (matching capacity, churn via
    {!set_online}, degradation, repairs towards it) treats a helper like
    any other box, so a helper's departure is {e exactly} the crash of a
    zero-demand box. *)

val set_helper : t -> int -> bool -> unit
(** Mark (or unmark) a box as a helper.
    @raise Invalid_argument on out-of-range box. *)

val is_helper : t -> int -> bool
(** @raise Invalid_argument on out-of-range box. *)

val swarm_size : t -> int -> int
(** Boxes that entered the swarm of a video within the last [T] rounds. *)

val active_request_count : t -> int
val upload_slots_of_box : t -> int -> int
(** Matching capacity after relay reservations. *)

val is_online : t -> int -> bool

val box_epoch : t -> int
(** A counter that moves whenever per-box state a derived view may read
    changes: an online flip ({!set_online}), an upload factor
    ({!set_upload_factor}), a helper mark ({!set_helper}) or the
    allocation ({!install}).  A view computed from those (the
    under-replicated stripes, the online upload-slot total) stays valid
    while the epoch is unchanged.  O(1). *)

val cancel : t -> int -> unit
(** The user stops watching: the box's in-flight and scheduled requests
    are dropped and it becomes idle; what it already cached keeps
    serving the swarm within the window.
    @raise Invalid_argument on out-of-range box. *)

val set_online : t -> int -> bool -> unit
(** Churn injection.  Taking a box offline drops its in-flight and
    scheduled requests and its still-pending demands (the viewer is
    gone), removes its upload slots and replicas from the matching, and
    hides its cache; bringing it back restores its static replicas and
    upload.  Repair transfers towards the box die with it — the partial
    copy is lost.  The requests of every box taken offline leave in one
    pass, before anything next reads the request set; the observable
    result is the same as dropping them box by box.
    @raise Invalid_argument on out-of-range box. *)

(** {2 Fault injection and self-healing hooks}

    The handles the deterministic fault layer ([vod_fault]) drives.
    None of them is consulted on the plain path: with no degradation,
    no link-fault predicate and no injected repairs the engine is
    bit-identical to one created before these hooks existed. *)

val install : t -> (int * int) list -> unit
(** [install t pairs] adds one replica of [stripe] on [box] for each
    [(stripe, box)] to the engine's allocation, in place
    ({!Vod_model.Allocation.add_replicas}: the allocation passed to
    {!create} changes with it), and moves {!box_epoch} — the
    maintenance controller installs repaired replicas this way.
    In-flight requests are unaffected.
    @raise Invalid_argument as [add_replicas]; nothing is installed. *)

val set_upload_factor : t -> box:int -> factor:float -> unit
(** Degrade (or restore) a box's upload: its matching capacity becomes
    [floor ((u_b * factor - reserved) * c)], clamped at 0.  [factor]
    must lie in [0, 1]; 1 restores the nominal capacity.
    @raise Invalid_argument on out-of-range box or factor. *)

val upload_factor : t -> int -> float
(** The box's current degradation factor (1 when undegraded). *)

val set_link_faults : t -> (time:int -> owner:int -> server:int -> bool) option -> unit
(** Install (or clear) the transient-connection-failure predicate.
    After the matching, every matched connection consults it; [true]
    drops the connection {e after} it consumed the server's upload slot:
    the request stalls and is counted in {!round_report.faulted}.  The
    predicate must be a pure function of its arguments for runs to be
    reproducible (the fault layer derives it from a seed by hashing, so
    evaluation order never matters). *)

val inject_repair : t -> stripe:int -> dest:int -> rounds:int -> unit
(** Schedule a {!Repair_transfer}: from the next round on, box [dest]
    requests [stripe] from the boxes possessing it until it has been
    served [rounds] times, then the completion is reported through
    {!drain_completed_repairs}.  The transfer consumes real donor
    upload slots in every round it is served.
    @raise Invalid_argument on out-of-range arguments or an offline
    [dest]. *)

val abort_repair : t -> stripe:int -> dest:int -> bool
(** Withdraw an in-flight repair transfer (maintenance gives up, e.g.
    after repeated donor saturation); [false] when no such transfer was
    active or scheduled. *)

val drain_completed_repairs : t -> (int * int) list
(** [(stripe, dest)] pairs of repair transfers completed since the last
    drain, in completion order; draining clears the buffer.  The caller
    (the maintenance controller) is responsible for installing the
    replica via {!install}. *)

val repair_in_flight : t -> int
(** Repair transfers currently active or scheduled. *)

val last_loads : t -> int array
(** Upload slots used per box in the most recent round's matching. *)

val cumulative_loads : t -> int array
(** Total stripe-rounds served by each box since creation — the
    forwarding-load balance the paper's introduction worries about,
    measurable with {!Vod_util.Stats.jain_fairness}. *)

val startup_delays : t -> int array
(** Realised start-up delay of every demand whose [c] stripes have all
    begun streaming, in rounds since its first request.  Under the
    homogeneous preloading strategy with no stalls this is 1 (preload
    at [t], postponed at [t+1]); the paper's constant "3 round"
    start-up counts two more protocol rounds on top.  Relayed demands
    take 3 (the doubled time scale).  Stalls lengthen it. *)

val startup_count : t -> int
(** Number of realised start-up delays so far — an O(1) cursor into
    {!startup_delays} that lets a per-round consumer (the SLO
    evaluator) read only the delays new since the previous round. *)

val startup_delay : t -> int -> int
(** [startup_delay t i] is the [i]-th realised delay, [0 <= i <
    startup_count t], without the O(n) copy of {!startup_delays}. *)

val demand : t -> box:int -> video:int -> unit
(** Register that the user of [box] demands [video] in the interval
    before the next {!step}.  A poor box with a relay in the supplied
    compensation follows the Theorem 2 request strategy; otherwise the
    box issues plain requests (as in the paper's negative-result
    scenario, where boxes below the threshold have no relays).
    @raise Invalid_argument when the box is busy, offline, a helper, or
    the video is out of range. *)

type reject_reason =
  | Offline  (** The box is offline; a rejoin may make it admissible. *)
  | Helper  (** Upload-only box: never takes demands. *)
  | Out_of_range  (** Box or video id outside the system. *)

type admit =
  | Admitted  (** Registered: the demand enters the next {!step}. *)
  | Queued
      (** The box is valid but cannot start now (busy with a video, or a
          demand for it is already pending) — the caller may hold the
          demand and retry. *)
  | Rejected of reject_reason

val try_demand : t -> box:int -> video:int -> admit
(** Total-function twin of {!demand} for service loops: classify the
    demand instead of raising or silently dropping it.  [Admitted] has
    registered the demand exactly as {!demand} would; the other
    verdicts leave the engine untouched. *)

val awaiting_first : t -> int -> int
(** Stripes of the box's current demand that have not yet begun
    streaming; [0] once start-up completed (or when the box has no
    demand).  The session-accounting hook of the service layer:
    admission is complete exactly when this returns to 0.
    @raise Invalid_argument on out-of-range box. *)

val step : t -> round_report
(** Advance one round: activate scheduled requests, expire finished
    ones, run the connection matching, progress the served requests.

    Under [Arbitrary] the matching first walks each request's
    candidates in row order and seats it on the lowest-id box with a
    free slot, building no instance.  That is exactly the matching the
    Dinic core's greedy first-fit pass would start from, so when every
    request is seated it is the round's maximum matching, byte for
    byte.  Only when some request finds no free slot does the step
    build the instance and solve it from scratch (and read the Hall
    certificate off that solve).  A round the walk closes still grows
    the instance's buffers and the solver's scratch to its size, so the
    buffers, and what a run allocates, do not depend on which rounds
    fall back.  The other schedulers build and solve every round.
    @raise Defeated (with the report) under [Fail_fast] when some
    request cannot be served. *)

val last_violator : t -> Vod_graph.Bipartite.violator option
(** Hall certificate of the most recent failed round, if any. *)

val last_instance : t -> Vod_graph.Bipartite.t option
(** The bipartite connection-matching instance of the most recent
    {!step} ([None] before the first round).  Exposed so the
    verification subsystem ([vod_check]) can audit the engine's
    matchings and Hall certificates against the very instance the
    scheduler solved.

    A round the greedy walk seated whole (see {!step}) built no
    instance: the first call after the step builds it from that
    round's requests and capacities.  If the rows may have changed
    before that call — the box epoch moved ({!set_online},
    {!set_upload_factor}, {!set_helper}, {!install}) or a request was
    dropped ({!cancel}, {!abort_repair}) — there is nothing to build
    and the call returns [None].  A round that built its instance in
    the step (one the walk could not close, which includes every stall
    round, or any round of a cost-aware or proposal scheduler) returns
    it whatever happens after the step.

    The engine reuses one instance across rounds (rebuilding it in
    place), so the returned value is only meaningful until the next
    {!step}. *)

val video_request_stats : t -> (int * int * int * int) list
(** For each video with active requests, [(video, i, i1, servers)]:
    the request count, the number of distinct stripes requested, and
    the number of online boxes possessing data some request needs —
    the quantities of Lemma 2, measurable on a live trace. *)

(** {2 Request store}

    Requests live in slots: parallel int arrays indexed by a slot id,
    with a free list.  A slot is held by the active/scheduled set and,
    for a viewer request once activated, by its stripe's cache window
    until the window expires it; it is freed when it holds neither. *)

val request_slots : t -> int * int
(** [(live, minted)]: the slots in use, and the slots ever handed out
    (the pool's high-water mark; freed slots are reused first). *)

val audit_requests : t -> (unit, string) result
(** Check the request store: every slot in the active set, the schedule
    or a cache window is live and appears there once, each window is
    its stripe's FIFO, no freed slot is reachable and no live one is
    unreachable.  [Error] names the first violation.  O(pool + stripes);
    for tests. *)

val run :
  t -> rounds:int -> demands_for:(t -> int -> (int * int) list) -> round_report list
(** [run t ~rounds ~demands_for] drives [rounds] steps; before each it
    feeds the demands returned by [demands_for t time] (pairs of
    [box, video]) through {!try_demand} — demands on busy, offline and
    helper boxes are classified and dropped rather than raising, so
    stateless generators compose with churn plans.
    Reports are in round order. *)
