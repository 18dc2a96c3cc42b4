open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Registry = Vod_obs.Registry
module Slo = Vod_obs.Slo
module Span = Vod_obs.Span

let obs_crashes = Registry.counter Registry.default "fault.crashes"
let obs_rejoins = Registry.counter Registry.default "fault.rejoins"
let obs_degradations = Registry.counter Registry.default "fault.degradations"

type t = {
  scenario : Scenario.t;
  seed : int;
  rounds : int;
  n : int;
  m : int;
  helpers : (int * int) array;
  plan : Plan.t;
  engine : Engine.t;
  mend : Mend.t;
  crowd_rng : Prng.t;
  mutable flaky : float;
  mutable installs : int;
  mutable repairable : int list;
  mutable unrepairable : int list;
}

(* Static validation shared by [validate] and [create], so worker
   domains never have to report errors.  The catalog is sized against
   the {e base} fleet only: helper storage is pure surplus, so a
   scenario's catalog does not silently grow when a fleet is added. *)
let prepare ~seed (s : Scenario.t) =
  let base =
    match s.population with
    | Scenario.Homogeneous -> Box.Fleet.homogeneous ~n:s.n ~u:s.u ~d:s.d
    | Scenario.Rich_poor { rich_fraction; u_rich; u_poor; _ } ->
        Box.Fleet.two_class ~n:s.n ~rich_fraction ~u_rich ~u_poor ~d:s.d
  in
  let m =
    match s.m with
    | Some m -> m
    | None -> Vod_alloc.Schemes.max_catalog ~fleet:base ~c:s.c ~k:s.k
  in
  let slots = Array.fold_left (fun acc b -> acc + Box.storage_slots ~c:s.c b) 0 base in
  if s.k * m * s.c > slots then
    Error
      (Printf.sprintf "catalog does not fit: k*m*c = %d replicas > %d storage slots"
         (s.k * m * s.c) slots)
  else
    let fleet = Helpers.extend_fleet base s.helpers in
    let n = Array.length fleet in
    let helpers = Helpers.ranges ~base_n:s.n s.helpers in
    let topology =
      Option.map (fun groups -> Topology.uniform_groups ~n ~groups) s.groups
    in
    match Plan.compile ?topology ~helpers ~seed ~n s.events with
    | Error _ as err -> err
    | Ok plan -> (
        let bad_flash = function
          | round, Plan.Flash_crowd (v, _) when v >= m -> Some (round, v)
          | _ -> None
        in
        match List.find_map bad_flash s.events with
        | Some (round, v) ->
            Error
              (Printf.sprintf "round %d: flash-crowd video %d outside catalog [0, %d)"
                 round v m)
        | None -> Ok (base, fleet, m, topology, helpers, plan))

let validate s = Result.map ignore (prepare ~seed:s.Scenario.seed s)

let create ?rounds ?seed ?(scheduler = Engine.Arbitrary)
    ?(scheme = Vod_alloc.Schemes.Permutation)
    (s : Scenario.t) =
  let seed = Option.value seed ~default:s.seed in
  match prepare ~seed s with
  | Error _ as err -> err
  | Ok (base, fleet, m, topology, helpers, plan) ->
      let n = Array.length fleet in
      let params = Params.make ~n ~c:s.c ~mu:s.mu ~duration:s.duration in
      let catalog = Catalog.create ~m ~c:s.c in
      (* allocation over the base fleet, then deterministic helper
         seeding on top — the base replica lists are untouched *)
      let base_alloc =
        Vod_alloc.Schemes.allocate (Prng.create ~seed ()) ~scheme ~fleet:base ~catalog
          ~k:s.k
      in
      let alloc =
        if s.helpers = [] then base_alloc
        else Helpers.seed_allocation ~fleet ~c:s.c base_alloc
      in
      (* Theorem 2 relays are assigned over the base fleet only (helpers
         may be offline); when the population is not compensable the run
         proceeds uncompensated — the paper's negative-result regime. *)
      let compensation =
        match s.population with
        | Scenario.Homogeneous -> None
        | Scenario.Rich_poor { u_star; _ } ->
            Option.map (Helpers.extend_compensation ~n)
              (Vod_analysis.Theorem2.compensate base ~u_star)
      in
      let engine =
        Engine.create ~params ~fleet ~alloc ?compensation ~policy:Engine.Continue
          ~scheduler ?topology ()
      in
      Array.iter
        (fun (start, count) ->
          for b = start to start + count - 1 do
            Engine.set_helper engine b true;
            Engine.set_online engine b false
          done)
        helpers;
      (* the plan hashes its own seed; workload, controller and crowd
         draws get independent streams derived from the run seed *)
      let d =
        {
          scenario = s;
          seed;
          rounds = Option.value rounds ~default:s.rounds;
          n;
          m;
          helpers;
          plan;
          engine;
          mend = Mend.create ~seed:(seed + 101) (Mend.of_scenario s);
          crowd_rng = Prng.create ~seed:(seed + 13) ();
          flaky = 0.0;
          installs = 0;
          repairable = [];
          unrepairable = [];
        }
      in
      Engine.set_link_faults engine
        (Some
           (fun ~time ~owner ~server ->
             Plan.link_fault plan ~prob:d.flaky ~time ~owner ~server));
      Ok d

let apply d ~time flash = function
  | Plan.Crash b when Engine.is_online d.engine b ->
      Engine.set_online d.engine b false;
      Registry.incr obs_crashes
  | Plan.Rejoin b when not (Engine.is_online d.engine b) ->
      Engine.set_online d.engine b true;
      Registry.incr obs_rejoins
  | Plan.Crash _ | Plan.Rejoin _ -> ()
  | Plan.Degrade (b, f) ->
      Engine.set_upload_factor d.engine ~box:b ~factor:f;
      Registry.incr obs_degradations
  | Plan.Restore b -> Engine.set_upload_factor d.engine ~box:b ~factor:1.0
  | Plan.Flaky p -> d.flaky <- p
  | Plan.Flash_crowd (video, viewers) -> flash ~time ~video ~viewers
  | Plan.Group_crash _ | Plan.Group_rejoin _ | Plan.Group_degrade _ | Plan.Group_restore _
  | Plan.Helper_join _ | Plan.Helper_leave _ ->
      assert false (* Plan.compile expanded these *)

let faults d ~time ~flash =
  Span.with_ ~name:"faults" (fun () ->
      List.iter (apply d ~time flash) (Plan.events_at d.plan time))

let crowd ?(eligible = fun _ -> true) d ~viewers =
  let idle, len = Engine.borrow_idle d.engine in
  let free = ref 0 in
  for i = 0 to len - 1 do
    let b = idle.(i) in
    if eligible b then begin
      idle.(!free) <- b;
      incr free
    end
  done;
  Sample.shuffle_prefix d.crowd_rng idle ~len:!free;
  (idle, min viewers !free)

let step ?(backlog = false) d =
  Span.with_ ~name:"repair" (fun () -> Mend.tick d.mend d.engine);
  let report = Engine.step d.engine in
  Span.with_ ~name:"repair" (fun () ->
      d.installs <- Mend.collect d.mend d.engine;
      if backlog then begin
        let repairable, unrepairable = Mend.pending d.mend d.engine in
        d.repairable <- repairable;
        d.unrepairable <- unrepairable
      end);
  report

(* The vod-slo/1 stream shares the runners' determinism contract: it
   is built from engine reports and runner counters only, with
   round-indexed windows and fixed-point floats, so it is
   byte-identical at any --jobs. *)

type slo_metric = Counts of (Engine.round_report -> int * int) | Startup_over of float

type slos = {
  slo_engine : Engine.t;
  evs : (Slo.t * slo_metric) array;
  states : Slo.state array;  (** Each SLO's state after the last round. *)
  buf : Buffer.t;
  mutable startups_seen : int;
  mutable first : bool;
}

let slo_line b str =
  Buffer.add_string b str;
  Buffer.add_char b '\n'

let slos d ~config specs =
  let evs =
    List.filter_map
      (fun (name, target, metric) ->
        if target > 0.0 && target <= 1.0 then
          Some (Slo.create (Slo.spec ~name ~target ()), metric)
        else None)
      specs
    |> Array.of_list
  in
  let buf = Buffer.create 512 in
  let specs = Array.map (fun (ev, _) -> Slo.spec_json (Slo.spec_of ev)) evs in
  slo_line buf
    (Printf.sprintf
       {|{"type":"meta","version":"vod-slo/1","scenario":"%s","config":"%s","seed":%d,"rounds":%d,"slos":[%s]}|}
       (Vod_obs.Export.escape d.scenario.Scenario.name)
       (Vod_obs.Export.escape config) d.seed d.rounds
       (String.concat "," (Array.to_list specs)));
  {
    slo_engine = d.engine;
    evs;
    states = Array.map (fun (ev, _) -> Slo.state ev) evs;
    buf;
    startups_seen = 0;
    first = true;
  }

let observe t (report : Engine.round_report) =
  let engine = t.slo_engine in
  let startup_count = Engine.startup_count engine in
  Array.iter
    (fun (ev, metric) ->
      let bad, total =
        match metric with
        | Counts f -> f report
        | Startup_over limit ->
            let bad = ref 0 in
            for i = t.startups_seen to startup_count - 1 do
              if float_of_int (Engine.startup_delay engine i) > limit then incr bad
            done;
            (!bad, startup_count - t.startups_seen)
      in
      Slo.observe ev ~bad ~total)
    t.evs;
  t.startups_seen <- startup_count;
  (* verdict lines on state transitions (and the first round) *)
  Array.iteri
    (fun i (ev, _) ->
      let state = Slo.state ev in
      if t.first || state <> t.states.(i) then
        slo_line t.buf (Slo.verdict_json ev ~round:report.Engine.time);
      t.states.(i) <- state)
    t.evs;
  t.first <- false

let evaluators t = Array.to_list (Array.map fst t.evs)

let finish t =
  let summaries = List.map Slo.summary (evaluators t) in
  List.iter (fun su -> slo_line t.buf (Slo.summary_line su)) summaries;
  (summaries, Buffer.contents t.buf)

let replicate ?jobs ~replications ~run (s : Scenario.t) =
  if replications < 1 then Error "replications must be >= 1"
  else
    match validate s with
    | Error _ as err -> err
    | Ok () ->
        let results =
          Vod_par.Par.map ?jobs
            ~f:(fun rep ->
              match run ~rep ~seed:(s.seed + (1000 * rep)) with
              | Ok o -> o
              | Error msg -> failwith msg (* unreachable: validated above *))
            replications
        in
        Ok (Array.to_list results)
