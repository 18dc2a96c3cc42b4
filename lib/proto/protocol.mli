(** A message-level distributed implementation of the video system.

    The main engine ({!Vod_sim.Engine}) is the {e oracle} model: a
    global per-round maximum flow wires connections.  This module is
    the {e protocol} realisation the paper leaves as future work: boxes
    know nothing globally and coordinate purely by messages —

    - the per-video preload counter lives at the DHT owner of the
      video key (a [Counter] round-trip, charged with routing latency);
    - stripe holders are found through DHT lookups ([Lookup]); viewers
      register themselves as cache holders once they start streaming;
    - connections are negotiated with [Propose]/[Accept]/[Reject]
      (servers enforce their upload slots locally) and then push one
      position per round ([Chunk]) until the stripe completes or the
      server must [Close] (e.g. its own cache has not advanced far
      enough); closed downloads re-enter the lookup loop.

    All latencies are in rounds: a DHT interaction with [h] routing
    hops costs [h + 1] rounds each way; direct messages cost 1 round.
    Every message is counted, so experiments can report the control
    overhead per demand (experiment E17). *)

open Vod_model

type config = {
  params : Params.t;
  fleet : Box.t array;
  alloc : Allocation.t;
}

type t

val create : config -> t
(** @raise Invalid_argument when sizes disagree (as {!Vod_sim.Engine.create}). *)

val now : t -> int
val is_idle : t -> int -> bool

val set_online : t -> int -> bool -> unit
(** Churn: a departing box loses its session, upstream streams and
    cache; clients it was serving recover through proposal/stream
    timeouts and fresh lookups (the DHT ring itself is treated as
    stable infrastructure).  @raise Invalid_argument on out-of-range
    box. *)

val demand : t -> box:int -> video:int -> unit
(** @raise Invalid_argument when the box is busy or the video is out of
    range. *)

val step : t -> unit
(** Advance one round: deliver due messages, run the node state
    machines, push one chunk per active stream. *)

(** Outcome statistics. *)

val completed_demands : t -> int
(** Demands whose [c] stripes all finished downloading. *)

val startup_delays : t -> int array
(** Rounds from demand to all [c] stripes streaming, for every demand
    that reached that point. *)

val stalled_demands : t -> int
(** Demands begun but not yet complete (in progress or stuck). *)

type message_stats = {
  counter : int;  (** Counter round-trips (messages incl. routing). *)
  lookup : int;  (** Lookup request/reply messages incl. routing. *)
  negotiation : int;  (** Propose/Accept/Reject messages. *)
  chunks : int;  (** Data messages. *)
  registrations : int;  (** Cache-holder (un)registrations. *)
}

val message_stats : t -> message_stats

val control_messages_per_demand : t -> float
(** All non-chunk messages divided by the number of demands issued. *)
