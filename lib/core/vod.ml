(* Facade of the library: one flat namespace over the substrate
   libraries plus the high-level [System] API used by the examples, the
   CLI and the benchmark harness. *)

module Prng = Vod_util.Prng
module Sample = Vod_util.Sample
module Stats = Vod_util.Stats
module Table = Vod_util.Table

module Csr = Vod_graph.Csr
module Arena = Vod_graph.Arena
module Dinic = Vod_graph.Dinic
module Bipartite = Vod_graph.Bipartite
module Min_cost_flow = Vod_graph.Min_cost_flow

module Params = Vod_model.Params
module Box = Vod_model.Box
module Catalog = Vod_model.Catalog
module Allocation = Vod_model.Allocation
module Codec = Vod_model.Codec
module Topology = Vod_model.Topology

module Schemes = Vod_alloc.Schemes
module Balance = Vod_alloc.Balance
module Repair = Vod_alloc.Repair

module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics
module Telemetry = Vod_sim.Telemetry

module Generators = Vod_workload.Generators

module Par = Vod_par.Par
(** Deterministic parallel task runner: [Par.map] fans independent
    replications out over domains on OCaml >= 5 and degrades to a
    sequential backend on 4.14 ([Par.backend] says which). *)

module Ring = Vod_directory.Ring
module Directory = Vod_directory.Directory
module Piece_swarm = Vod_swarm.Piece_swarm
module Protocol = Vod_proto.Protocol

module Probe = Vod_adversary.Probe
module Attacks = Vod_adversary.Attacks
module Catalog_search = Vod_adversary.Catalog_search

module Check = Vod_check
(** The differential verification subsystem: certificate checkers
    ([Check.Certificate]), cross-solver and cross-scheduler oracles
    ([Check.Oracle]) and the seeded fuzz harness ([Check.Fuzz]). *)

module Fault = Vod_fault
(** The fault-injection and self-healing subsystem: declarative fault
    plans ([Fault.Plan]), scenario files ([Fault.Scenario]), helper
    fleets ([Fault.Helpers]), the bandwidth-aware maintenance
    controller ([Fault.Mend]) and the deterministic chaos runner
    ([Fault.Chaos]). *)

module Serve = Vod_serve.Serve
(** The long-running service mode: event-driven admission control,
    bounded-queue backpressure and deadline-aware session recovery
    around the engine ([Serve.run]), driven by continuous arrivals and
    the scenario's fault plan — the [vodctl serve] runner. *)

module Session = Vod_serve.Session
(** The per-client control-plane state machine the service drives
    ([Arriving -> Admitted -> Streaming -> Completed] with retry /
    shed / reject exits). *)

module Battery = Vod_battery
(** The scenario battery: (engine config × scenario) matrices run
    through the chaos runner into a deterministic ranked KPI scorecard
    ([Battery.Battery], [Battery.Kpi]) — the CI-checkable artefact of
    [vodctl battery]. *)

module Obs = Vod_obs
(** The observability subsystem: metrics registry ([Obs.Registry]),
    span tracing ([Obs.Span]), JSONL export ([Obs.Export]), trace
    loading/validation/summaries ([Obs.Report]), multi-window SLO burn
    rates ([Obs.Slo]), collapsed-stack flamegraph folding ([Obs.Flame]),
    terminal dashboard primitives ([Obs.Dash]) and exact allocation
    counts ([Obs.Words]).  Solvers and the
    engine record into [Obs.Registry.default]; span recording is off
    until a recorder is installed with [Obs.Span.install].  SLOs are
    fed by the one per-round observer, [Telemetry], which every loop
    that evaluates them calls after [Engine.step]. *)

module Theorem1 = Vod_analysis.Theorem1
module Theorem2 = Vod_analysis.Theorem2
module Obstruction_bound = Vod_analysis.Obstruction_bound

module System = struct
  (** A fully assembled video system: parameters, fleet and allocation,
      ready to be driven. *)
  type t = {
    params : Params.t;
    fleet : Box.t array;
    alloc : Allocation.t;
    compensation : Theorem2.compensation option;
  }

  (** Build a homogeneous (n,u,d)-system with an [m]-video catalog
      ([m] defaults to the storage-maximal catalog [dn/k]) allocated by
      [scheme] (default random permutation). *)
  let homogeneous ?(seed = 42) ?(scheme = Schemes.Permutation) ?m ~n ~u ~d ~c ~k ~mu
      ~duration () =
    let g = Prng.create ~seed () in
    let fleet = Box.Fleet.homogeneous ~n ~u ~d in
    let params = Params.make ~n ~c ~mu ~duration in
    let m =
      match m with Some m -> m | None -> Schemes.max_catalog ~fleet ~c ~k
    in
    let catalog = Catalog.create ~m ~c in
    let alloc = Schemes.allocate g ~scheme ~fleet ~catalog ~k in
    { params; fleet; alloc; compensation = None }

  (** Build a heterogeneous system from an explicit fleet; when some box
      has upload below [u_star] a compensation assignment is computed
      (raising [Failure] when none exists). *)
  let heterogeneous ?(seed = 42) ?(scheme = Schemes.Permutation) ?m ?(u_star = 1.25)
      ~fleet ~c ~k ~mu ~duration () =
    let g = Prng.create ~seed () in
    let n = Array.length fleet in
    let params = Params.make ~n ~c ~mu ~duration in
    let m =
      match m with Some m -> m | None -> Schemes.max_catalog ~fleet ~c ~k
    in
    let catalog = Catalog.create ~m ~c in
    let alloc = Schemes.allocate g ~scheme ~fleet ~catalog ~k in
    let compensation =
      if Array.exists (fun b -> b.Box.upload < u_star) fleet then
        match Theorem2.compensate fleet ~u_star with
        | Some comp -> Some comp
        | None -> failwith "System.heterogeneous: fleet is not upload-compensable"
      else None
    in
    { params; fleet; alloc; compensation }

  let catalog_size t = Catalog.videos (Allocation.catalog t.alloc)

  let engine ?(policy = Engine.Continue) ?(scheduler = Engine.Arbitrary) ?topology t =
    Engine.create ~params:t.params ~fleet:t.fleet ~alloc:t.alloc
      ?compensation:t.compensation ~policy ~scheduler ?topology ()

  (** Drive [rounds] rounds of a workload and summarise. *)
  let simulate ?(policy = Engine.Continue) ?(scheduler = Engine.Arbitrary) ?topology t
      ~rounds ~workload =
    let e = engine ~policy ~scheduler ?topology t in
    let reports = Engine.run e ~rounds ~demands_for:workload in
    Metrics.summarise reports

  (** Persist / restore the allocation and fleet (text format). *)
  let save t ~alloc_path ~fleet_path =
    Codec.save t.alloc ~path:alloc_path;
    Codec.save_fleet t.fleet ~path:fleet_path

  (** One-call adversarial audit of the allocation (static probes). *)
  let audit ?(seed = 7) ?(trials = 20) t =
    let g = Prng.create ~seed () in
    Probe.survives_battery g ~fleet:t.fleet ~alloc:t.alloc ~c:t.params.Params.c ~trials
end
