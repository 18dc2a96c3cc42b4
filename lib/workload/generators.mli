(** Demand-sequence generators.  Each generator is a function suitable
    for {!Vod_sim.Engine.run}: given the engine state and the upcoming
    round it returns the [(box, video)] demands to register.  All
    generators respect the model's constraints — they only target idle
    boxes, and the flash-crowd generator grows its swarm by at most the
    [mu] of the system parameters per round. *)

type t = Vod_sim.Engine.t -> int -> (int * int) list

val zipf_arrivals :
  Vod_util.Prng.t -> rate:float -> s:float -> t
(** Poisson([rate]) new viewers per round, each picking a video by
    Zipf(s) popularity over the catalog.  The classic steady-state VoD
    evening load. *)

val uniform_arrivals : Vod_util.Prng.t -> rate:float -> t
(** Poisson arrivals with uniformly chosen videos — the load the random
    allocation is "designed" for. *)

val flash_crowd :
  Vod_util.Prng.t -> video:int -> ?background_rate:float -> unit -> t
(** Everyone rushes to [video]: each round the generator adds as many
    viewers as the swarm-growth bound [mu] allows
    ([ceil (max(size,1) * mu) - size] new entries), drawing the
    remaining idle boxes at random; an optional Poisson background of
    uniform demands runs underneath. *)

val constant_per_round : Vod_util.Prng.t -> per_round:int -> t
(** Exactly [per_round] uniform demands per round (capped by the idle
    population). *)

val diurnal :
  Vod_util.Prng.t -> peak_rate:float -> period:int -> s:float -> t
(** A day/night cycle: Poisson arrivals whose rate follows
    [peak_rate * (1 + sin(2 pi t / period)) / 2] (0 at the trough,
    [peak_rate] at the peak), with Zipf(s) video popularity.  Models the
    evening-peak load pattern of a residential ISP. *)

val replay : (int * int * int) list -> t
(** Replay a scripted sequence of [(time, box, video)] demands. *)

val nothing : t
(** No demands — lets in-flight requests drain. *)
