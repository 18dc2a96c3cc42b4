(** The round driver {!Chaos} and the service layer ({!Vod_serve})
    share: one system build, one fault step, one repair step, the
    [vod-slo/1] meta line and one replication fan-out.

    These are plain functions, not a hook framework.  Each runner keeps
    its own short round loop and its own round and verdict lines, and
    calls, per round: {!faults}, then whatever it adds (background
    demand, or admission), then {!step}, then the round observer
    ({!Vod_sim.Telemetry.observe}).  Chaos is the admit-everything
    runner; serve puts admission, backpressure and recovery between
    {!faults} and {!step}. *)

type t = private {
  scenario : Scenario.t;
  seed : int;  (** The seed this replication runs with. *)
  rounds : int;
  n : int;  (** Boxes, helper fleets included. *)
  m : int;  (** Catalog size. *)
  helpers : (int * int) array;  (** Helper fleets as [(first box, count)]. *)
  plan : Plan.t;
  engine : Vod_sim.Engine.t;
  mend : Mend.t;
  crowd_rng : Vod_util.Prng.t;
  mutable flaky : float;  (** The link-fault probability now in force. *)
  mutable installs : int;  (** Replicas {!step} installed this round. *)
  mutable repairable : int list;
  mutable unrepairable : int list;
      (** The repair backlog after the round ({!Mend.pending}), set by
          [step ~backlog:true]; empty otherwise. *)
}

val validate : Scenario.t -> (unit, string) result
(** Static validation without building: plan compilation (including
    helper ranges and topology), catalog fit against the {e base}
    fleet, flash-crowd videos inside the catalog. *)

val create :
  ?rounds:int ->
  ?seed:int ->
  ?scheduler:Vod_sim.Engine.scheduler ->
  ?scheme:Vod_alloc.Schemes.scheme ->
  Scenario.t ->
  (t, string) result
(** Build the system once: the base fleet (homogeneous, or the Theorem
    2 rich/poor population compensated at [u_star] when feasible), its
    allocation ([scheme], default [Permutation]; helper fleets are
    seeded on top and start offline), the engine under [scheduler]
    (default [Arbitrary]) with the plan's link faults wired in, and the
    {!Mend} controller.  [rounds] and [seed] override the scenario's.
    [Error] as {!validate}; the fit check is the permutation's, so
    [Independent] and [Full_replication] can still raise as
    {!Vod_alloc.Schemes.allocate} does. *)

val faults :
  t -> time:int -> flash:(time:int -> video:int -> viewers:int -> unit) -> unit
(** Apply the plan's events for round [time] under the [faults] span:
    crashes, rejoins, degradations and restores (counted in the
    [fault.*] registry counters) and the link-fault probability.  Flash
    crowds go to [flash]: chaos demands directly, serve queues
    sessions. *)

val crowd : ?eligible:(int -> bool) -> t -> viewers:int -> int array * int
(** [(boxes, take)]: a flash crowd lands on [boxes.(0)] to
    [boxes.(take - 1)], drawn from the idle boxes (those [eligible]
    keeps, default all) by one shuffle of the crowd stream.  [boxes] is
    the engine's idle scratch ({!Vod_sim.Engine.borrow_idle}), valid
    until the next call that borrows it. *)

val step : ?backlog:bool -> t -> Vod_sim.Engine.round_report
(** One round: {!Mend.tick}, [Engine.step] and {!Mend.collect}, the
    repair steps under [repair] spans.  Sets [installs], and with
    [backlog] (default false) also [repairable] and [unrepairable]
    inside the second span. *)

val slo_meta : t -> config:string -> Vod_obs.Slo.spec list -> string
(** The [vod-slo/1] meta line (scenario, config, seed, rounds and the
    SLO specs): {!Vod_sim.Telemetry.create}'s [meta]. *)

val replicate :
  ?jobs:int ->
  replications:int ->
  run:(rep:int -> seed:int -> ('a, string) result) ->
  Scenario.t ->
  ('a list, string) result
(** [replications] independent runs, replication [rep] at seed
    [scenario.seed + 1000 * rep], fanned out over [jobs] workers with
    {!Vod_par.Par.map}; results in replication order regardless of
    scheduling.  Validates once up front so [Error] is returned, not
    raised, from workers. *)
