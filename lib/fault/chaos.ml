open Vod_util
module Engine = Vod_sim.Engine
module Export = Vod_obs.Export
module Registry = Vod_obs.Registry
module Slo = Vod_obs.Slo

let obs_flash_demands = Registry.counter Registry.default "fault.flash_demands"

(* Demands the engine would not take — historically skipped with no
   trace; Engine.try_demand classifies them so churn-time load loss is
   visible in the registry. *)
let obs_demands_queued = Registry.counter Registry.default "fault.demands_queued"
let obs_demands_rejected = Registry.counter Registry.default "fault.demands_rejected"

let count_admit = function
  | Engine.Admitted -> ()
  | Engine.Queued -> Registry.incr obs_demands_queued
  | Engine.Rejected _ -> Registry.incr obs_demands_rejected

module Schemes = Vod_alloc.Schemes

type engine_config = {
  label : string;
  scheduler : Engine.scheduler;
  scheme : Schemes.scheme;
}

let default_config =
  { label = "scratch"; scheduler = Engine.Arbitrary; scheme = Schemes.Permutation }

let config_of_name = function
  | "scratch" -> Ok default_config
  | "sticky" -> Ok { default_config with label = "sticky"; scheduler = Engine.Sticky }
  | "prefer-cache" ->
      Ok { default_config with label = "prefer-cache"; scheduler = Engine.Prefer_cache }
  | "balance-load" ->
      Ok { default_config with label = "balance-load"; scheduler = Engine.Balance_load }
  | "round-robin" ->
      Ok { default_config with label = "round-robin"; scheme = Schemes.Round_robin }
  | name -> Error (Printf.sprintf "unknown engine config '%s'" name)

type outcome = {
  scenario : Scenario.t;
  seed : int;
  reports : Engine.round_report list;
  stats : Mend.stats;
  recovered : bool;
  unrepairable : int;
  full_replication_round : int;
  time_to_full_replication : int;
  min_online : int;
  total_unserved : int;
  total_faulted : int;
  startup_delays : int array;
  jsonl : string;
  slo : Slo.summary list;
  slo_jsonl : string;
}

type tick = {
  t_report : Engine.round_report;
  t_under : int;
  t_unrepairable : int;
  t_in_flight : int;
  t_installs : int;
  t_slos : Slo.t list;
}

let validate = Driver.validate

(* ------------------------------------------------------------------ *)
(* KPI budgets as SLOs                                                 *)
(* ------------------------------------------------------------------ *)

(* A scenario's rate-style KPI budgets compile to burn-rate SLOs over
   the default 100/1000-round windows:

   - [max-rejection r]      -> "rejection": bad = unserved,
                               total = served + unserved, target r;
   - [max-startup-p95 L]    -> "startup": bad = new startups slower
                               than L rounds, total = new startups,
                               target 0.05 (the p95 tail budget);
   - [max-sourcing-share s] -> "sourcing": bad = connections served
                               from static replicas, total = served,
                               target s.

   [max-time-to-repair] and [require-recovery] are terminal conditions
   on the whole run, not per-round rates, so they stay KPI-only.  A
   budget of 0 (or an out-of-range one) has no meaningful burn rate —
   any bad event is an instant breach — and is likewise left to the
   end-of-run KPI check ([Driver.slos] drops it). *)

let rejection (r : Engine.round_report) = (r.unserved, r.served + r.unserved)
let sourcing (r : Engine.round_report) = (r.served - r.served_from_cache, r.served)

let slo_specs (s : Scenario.t) =
  let kpi = s.Scenario.kpi in
  List.filter_map Fun.id
    [
      Option.map (fun r -> ("rejection", r, Driver.Counts rejection)) kpi.max_rejection;
      Option.map (fun l -> ("startup", 0.05, Driver.Startup_over l)) kpi.max_startup_p95;
      Option.map
        (fun sh -> ("sourcing", sh, Driver.Counts sourcing))
        kpi.max_sourcing_share;
    ]

let run ?rounds ?seed ?(config = default_config) ?on_round (s : Scenario.t) =
  match
    Driver.create ?rounds ?seed ~scheduler:config.scheduler ~scheme:config.scheme s
  with
  | Error _ as err -> err
  | Ok d ->
      let engine = d.Driver.engine and plan = d.Driver.plan in
      let rounds = d.Driver.rounds and seed = d.Driver.seed in
      let workload =
        if s.rate > 0.0 then
          Vod_workload.Generators.uniform_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate:s.rate
        else Vod_workload.Generators.nothing
      in
      (* a flash crowd demands directly: every viewer goes to the engine *)
      let flash ~time:_ ~video ~viewers =
        let idle, take = Driver.crowd d ~viewers in
        for i = 0 to take - 1 do
          match Engine.try_demand engine ~box:idle.(i) ~video with
          | Engine.Admitted -> Registry.incr obs_flash_demands
          | admit -> count_admit admit
        done
      in
      let buf = Buffer.create (rounds * 96) in
      let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
      line
        {|{"type":"meta","version":"vod-chaos/1","scenario":"%s","config":"%s","seed":%d,"rounds":%d,"n":%d,"m":%d,"c":%d,"k":%d,"target_k":%d,"budget":%d,"transfer_rounds":%d}|}
        (Export.escape s.name) (Export.escape config.label) seed rounds d.Driver.n
        d.Driver.m s.c s.k s.target_k s.budget s.transfer_rounds;
      let slos = Driver.slos d ~config:config.label (slo_specs s) in
      let reports = ref [] in
      let full_replication_round = ref (-1) in
      let min_online = ref d.Driver.n in
      let total_unserved = ref 0 and total_faulted = ref 0 in
      for _ = 1 to rounds do
        let time = Engine.now engine + 1 in
        Driver.faults d ~time ~flash;
        List.iter
          (fun (box, video) -> count_admit (Engine.try_demand engine ~box ~video))
          (workload engine time);
        let report = Driver.step ~backlog:true d in
        let under = List.length d.Driver.repairable + List.length d.Driver.unrepairable in
        let unrepairable = List.length d.Driver.unrepairable in
        reports := report :: !reports;
        let online = d.Driver.n - report.Engine.offline_boxes in
        if online < !min_online then min_online := online;
        total_unserved := !total_unserved + report.Engine.unserved;
        total_faulted := !total_faulted + report.Engine.faulted;
        if !full_replication_round < 0 && time >= Plan.last_disruption plan && under = 0
        then full_replication_round := time;
        line
          {|{"type":"round","t":%d,"demands":%d,"active":%d,"served":%d,"unserved":%d,"faulted":%d,"offline":%d,"repair_active":%d,"repair_served":%d,"under":%d,"unrepairable":%d,"in_flight":%d,"installs":%d}|}
          report.Engine.time report.Engine.new_demands report.Engine.active_requests
          report.Engine.served report.Engine.unserved report.Engine.faulted
          report.Engine.offline_boxes report.Engine.repair_active report.Engine.repair_served
          under unrepairable
          (Engine.repair_in_flight engine)
          d.Driver.installs;
        Driver.observe slos report;
        match on_round with
        | None -> ()
        | Some f ->
            f
              {
                t_report = report;
                t_under = under;
                t_unrepairable = unrepairable;
                t_in_flight = Engine.repair_in_flight engine;
                t_installs = d.Driver.installs;
                t_slos = Driver.evaluators slos;
              }
      done;
      let mend = d.Driver.mend in
      let stats = Mend.stats mend in
      let _, unrepairable_left = Mend.pending mend engine in
      let unrepairable = List.length unrepairable_left in
      (* Quiescing is not enough: the controller also quiesces when a
         stripe is permanently lost (no alive donor).  Recovery means
         full target replication was actually restored. *)
      let recovered = Mend.quiesced mend engine && unrepairable = 0 in
      let ttf =
        if !full_replication_round < 0 then -1
        else !full_replication_round - Plan.last_disruption plan
      in
      line
        {|{"type":"verdict","recovered":%b,"full_replication_round":%d,"time_to_full_replication":%d,"transfers_started":%d,"transfers_completed":%d,"transfers_aborted":%d,"retries":%d,"replicas_installed":%d,"unrepairable":%d,"total_unserved":%d,"total_faulted":%d,"min_online":%d,"rounds":%d}|}
        recovered !full_replication_round ttf stats.Mend.started stats.Mend.completed
        stats.Mend.aborted stats.Mend.retries stats.Mend.installed unrepairable !total_unserved
        !total_faulted !min_online rounds;
      let slo, slo_jsonl = Driver.finish slos in
      Ok
        {
          scenario = s;
          seed;
          reports = List.rev !reports;
          stats;
          recovered;
          unrepairable;
          full_replication_round = !full_replication_round;
          time_to_full_replication = ttf;
          min_online = !min_online;
          total_unserved = !total_unserved;
          total_faulted = !total_faulted;
          startup_delays = Engine.startup_delays engine;
          jsonl = Buffer.contents buf;
          slo;
          slo_jsonl;
        }

let run_many ?rounds ?jobs ?config ~replications s =
  Driver.replicate ?jobs ~replications
    ~run:(fun ~rep:_ ~seed -> run ?rounds ~seed ?config s)
    s

let verdict_ok o = o.recovered
