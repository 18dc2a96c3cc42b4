(** The per-round observer: burn-rate SLOs over the engine's round
    reports, and the verdict lines of the [vod-slo/1] stream.

    Every loop that evaluates SLOs — chaos, serve, [vodctl top] and
    the obs-overhead gate — creates one {!t} per engine run and calls
    {!observe} after each {!Engine.step}.  The observer only reads the
    report and the engine's startup-delay vector, so observing cannot
    change a run's outcome (the obs-gate checks this on served counts).

    The round clock is the report stream itself, windows are
    round-indexed and every serialised float is fixed-point, so the
    stream is byte-identical at any [--jobs]. *)

val series_names : string list
(** The canonical per-round series [vodctl top] draws, in display
    order. *)

val sample : Engine.round_report -> string -> int
(** The report field a canonical series samples.
    @raise Invalid_argument on an unknown series name. *)

(** {1 Metrics} *)

val rejection : Engine.round_report -> int * int
(** [(unserved, served + unserved)]: the round's requests left without
    a connection. *)

val sourcing : Engine.round_report -> int * int
(** [(served - served_from_cache, served)]: connections that consumed
    sourcing (non-cache) capacity. *)

type metric =
  | Counts of (Engine.round_report -> int * int)
      (** [(bad, total)] for the round just run. *)
  | Startup_over of float
      (** Bad = the round's new startups slower than this many rounds,
          total = the round's new startups (one cursor over
          {!Engine.startup_delay} per observer). *)

(** {1 The observer} *)

type t

val create :
  ?meta:(Vod_obs.Slo.spec list -> string) ->
  Engine.t ->
  (string * float * metric) list ->
  t
(** Burn-rate SLOs on the default 100/1000-round windows over
    [engine], one per [(name, target, metric)] whose target lies in
    (0, 1], in the given order.  A target of 0 (or an out-of-range one)
    has no meaningful burn rate — any bad event is an instant breach —
    and is left to the end-of-run KPI check.  [meta], given the kept
    specs, is the stream's first line. *)

val observe : t -> Engine.round_report -> unit
(** Feed the round to every SLO; write a verdict line for each SLO on
    the first round and on every round its state changes. *)

val evaluators : t -> Vod_obs.Slo.t list
(** The live evaluators, spec order. *)

val last_round : t -> (int * int) list
(** The [(bad, total)] each SLO was fed for the last observed round,
    spec order. *)

val finish : t -> Vod_obs.Slo.summary list * string
(** The burn summaries, and the whole stream with one [slo-summary]
    line per SLO appended. *)
