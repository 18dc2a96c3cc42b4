(* Tests for start-up delay tracking and trace recording. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Startup delays                                                      *)
(* ------------------------------------------------------------------ *)

let build ?(n = 12) ?(u = 2.0) ?(c = 2) ?(k = 2) ?(mu = 2.0) ?(t = 10) ?(seed = 3) () =
  let fleet = Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let params = Params.make ~n ~c ~mu ~duration:t in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let test_startup_delay_homogeneous () =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  checki "not all streaming after round 1" 0 (Array.length (Engine.startup_delays sim));
  ignore (Engine.step sim);
  let delays = Engine.startup_delays sim in
  checki "one demand completed startup" 1 (Array.length delays);
  checki "preloading startup = 1 round" 1 delays.(0)

let test_startup_delay_relayed () =
  let n = 4 in
  let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:10 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:7 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  match Vod_analysis.Theorem2.compensate fleet ~u_star:1.25 with
  | None -> Alcotest.fail "compensable"
  | Some comp ->
      let sim = Engine.create ~params ~fleet ~alloc ~compensation:comp () in
      let poor = List.hd (Box.Fleet.poor_boxes fleet ~threshold:1.25) in
      Engine.demand sim ~box:poor ~video:0;
      for _ = 1 to 5 do
        ignore (Engine.step sim)
      done;
      let delays = Engine.startup_delays sim in
      checki "one startup recorded" 1 (Array.length delays);
      checki "relayed startup = 3 rounds (doubled scale)" 3 delays.(0)

let test_startup_delay_many_demands () =
  let params, fleet, alloc = build ~n:16 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:9 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:2.0 in
  ignore (Engine.run sim ~rounds:30 ~demands_for:gen);
  let delays = Engine.startup_delays sim in
  checkb "many startups recorded" true (Array.length delays > 10);
  Array.iter (fun d -> checki "unstalled startup is exactly 1" 1 d) delays

(* ------------------------------------------------------------------ *)
(* Per-round trace: Engine.run's reports through Metrics              *)
(* ------------------------------------------------------------------ *)

let test_trace_records_and_summarises () =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:11 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:1.0 in
  let reports = Engine.run sim ~rounds:25 ~demands_for:gen in
  checki "rows" 25 (List.length reports);
  let m = Metrics.summarise reports in
  checki "summary rounds" 25 m.Metrics.rounds;
  checkb "no failures" true
    (m.Metrics.failed_rounds = 0 && m.Metrics.first_failure = None)

let test_trace_csv_format () =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let csv =
    Metrics.to_csv (Engine.run sim ~rounds:3 ~demands_for:Vod_workload.Generators.nothing)
  in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  checki "header + 3 rows" 4 (List.length lines);
  checkb "header" true
    (List.hd lines
    = "time,new_demands,active_requests,served,unserved,served_from_cache,rewired,cross_group,busy_boxes,offline_boxes,faulted,repair_active,repair_served");
  (* idle system: all-zero data rows apart from time *)
  checkb "first data row" true (List.nth lines 1 = "1,0,0,0,0,0,0,0,0,0,0,0,0")

let test_trace_failure_rounds () =
  (* pathological allocation: defeats are recorded *)
  let n = 4 in
  let params = Params.make ~n ~c:2 ~mu:4.0 ~duration:6 in
  let fleet = Box.Fleet.homogeneous ~n ~u:0.5 ~d:4.0 in
  let catalog = Catalog.create ~m:2 ~c:2 in
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:n [| [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] |]
  in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.demand sim ~box:1 ~video:0;
  Engine.demand sim ~box:2 ~video:1;
  let m =
    Metrics.summarise
      (Engine.run sim ~rounds:4 ~demands_for:Vod_workload.Generators.nothing)
  in
  checkb "failures detected" true
    (m.Metrics.failed_rounds > 0 && m.Metrics.first_failure <> None)

let suites =
  [
    ( "sim.startup",
      [
        Alcotest.test_case "homogeneous = 1 round" `Quick test_startup_delay_homogeneous;
        Alcotest.test_case "relayed = 3 rounds" `Quick test_startup_delay_relayed;
        Alcotest.test_case "constant under load" `Quick test_startup_delay_many_demands;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "records and summarises" `Quick test_trace_records_and_summarises;
        Alcotest.test_case "csv format" `Quick test_trace_csv_format;
        Alcotest.test_case "failure rounds" `Quick test_trace_failure_rounds;
      ] );
  ]
