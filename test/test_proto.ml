(* Tests for the message-level protocol implementation: a single
   demand's lifecycle, swarm behaviour, message accounting and
   cross-validation against the oracle engine. *)

open Vod_util
open Vod_model
module Proto = Vod_proto.Protocol

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build ?(n = 16) ?(u = 2.0) ?(c = 2) ?(k = 3) ?(mu = 2.0) ?(t = 10) ?(seed = 3) () =
  let fleet = Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let params = Params.make ~n ~c ~mu ~duration:t in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  { Proto.params; fleet; alloc }

let test_create_validation () =
  let cfg = build () in
  let bad = { cfg with Proto.fleet = Box.Fleet.homogeneous ~n:4 ~u:1.0 ~d:1.0 } in
  Alcotest.check_raises "fleet size" (Invalid_argument "Protocol.create: fleet size <> params.n")
    (fun () -> ignore (Proto.create bad))

let test_single_demand_completes () =
  let cfg = build () in
  let p = Proto.create cfg in
  checkb "idle" true (Proto.is_idle p 0);
  Proto.demand p ~box:0 ~video:0;
  checkb "busy" false (Proto.is_idle p 0);
  (* generous horizon: counter RTT + lookups + T rounds of streaming *)
  for _ = 1 to 60 do
    Proto.step p
  done;
  checki "completed" 1 (Proto.completed_demands p);
  checki "no stragglers" 0 (Proto.stalled_demands p);
  checkb "box idle again" true (Proto.is_idle p 0);
  let delays = Proto.startup_delays p in
  checki "startup recorded" 1 (Array.length delays);
  (* startup includes DHT latency: more than the oracle's 1 round, but
     bounded by a handful of round-trips *)
  checkb (Printf.sprintf "startup %d in sane range" delays.(0)) true
    (delays.(0) >= 2 && delays.(0) <= 30)

let test_demand_validation () =
  let cfg = build () in
  let p = Proto.create cfg in
  Proto.demand p ~box:1 ~video:0;
  Alcotest.check_raises "busy" (Invalid_argument "Protocol.demand: box is busy")
    (fun () -> Proto.demand p ~box:1 ~video:1);
  Alcotest.check_raises "video range" (Invalid_argument "Protocol.demand: video out of range")
    (fun () -> Proto.demand p ~box:2 ~video:100_000)

let test_messages_flow () =
  let cfg = build () in
  let p = Proto.create cfg in
  Proto.demand p ~box:0 ~video:0;
  for _ = 1 to 60 do
    Proto.step p
  done;
  let s = Proto.message_stats p in
  checkb "counter messages" true (s.Proto.counter > 0);
  checkb "lookup messages" true (s.Proto.lookup > 0);
  checkb "negotiation messages" true (s.Proto.negotiation > 0);
  (* c stripes x T positions chunks *)
  checki "chunks = c*T" 20 s.Proto.chunks;
  checkb "registrations" true (s.Proto.registrations > 0);
  checkb "control overhead finite" true (Proto.control_messages_per_demand p > 0.0)

let test_many_demands_complete () =
  let cfg = build ~n:24 () in
  let p = Proto.create cfg in
  let g = Prng.create ~seed:7 () in
  let issued = ref 0 in
  for round = 1 to 120 do
    (* a couple of uniform arrivals per round in the first half *)
    if round <= 60 then begin
      let m = Catalog.videos (Allocation.catalog cfg.Proto.alloc) in
      for _ = 1 to 2 do
        let b = Prng.int g 24 in
        if Proto.is_idle p b then begin
          Proto.demand p ~box:b ~video:(Prng.int g m);
          incr issued
        end
      done
    end;
    Proto.step p
  done;
  checkb "plenty of demands" true (!issued > 20);
  checki "all complete" !issued (Proto.completed_demands p);
  checki "none stuck" 0 (Proto.stalled_demands p)

let test_swarm_uses_caches () =
  (* two viewers of the same video: the follower must be servable even
     with k=1 and the single static holder saturated by the leader *)
  let n = 8 in
  let fleet = Box.Fleet.homogeneous ~n ~u:1.0 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:2.0 ~duration:12 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:11 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:1 in
  let p = Proto.create { Proto.params; fleet; alloc } in
  let holder = (Alloc_rows.boxes_of_stripe alloc 0).(0) in
  let viewers = List.filter (fun b -> b <> holder) (List.init n Fun.id) in
  Proto.demand p ~box:(List.nth viewers 0) ~video:0;
  for _ = 1 to 8 do
    Proto.step p
  done;
  Proto.demand p ~box:(List.nth viewers 1) ~video:0;
  for _ = 1 to 80 do
    Proto.step p
  done;
  checki "both complete" 2 (Proto.completed_demands p)

let test_protocol_matches_oracle_service () =
  (* cross-validation: same allocation, same workload intensity — the
     protocol must complete everything the oracle engine serves, only
     with extra start-up latency *)
  let cfg = build ~n:24 ~k:3 () in
  (* oracle run *)
  let sim =
    Vod_sim.Engine.create ~params:cfg.Proto.params ~fleet:cfg.Proto.fleet
      ~alloc:cfg.Proto.alloc ~policy:Vod_sim.Engine.Continue ()
  in
  let g1 = Prng.create ~seed:13 () in
  let gen1 = Vod_workload.Generators.uniform_arrivals g1 ~rate:1.5 in
  let reports = Vod_sim.Engine.run sim ~rounds:80 ~demands_for:gen1 in
  let oracle = Vod_sim.Metrics.summarise reports in
  checki "oracle serves everything" 0 oracle.Vod_sim.Metrics.total_unserved;
  (* protocol run with its own arrivals of the same law *)
  let p = Proto.create cfg in
  let g2 = Prng.create ~seed:13 () in
  let m = Catalog.videos (Allocation.catalog cfg.Proto.alloc) in
  let issued = ref 0 in
  for round = 1 to 160 do
    if round <= 80 then begin
      let arrivals = Vod_util.Sample.poisson g2 1.5 in
      for _ = 1 to arrivals do
        let b = Prng.int g2 24 in
        if Proto.is_idle p b then begin
          Proto.demand p ~box:b ~video:(Prng.int g2 m);
          incr issued
        end
      done
    end;
    Proto.step p
  done;
  checki "protocol completes all" !issued (Proto.completed_demands p);
  (* startup is higher than the oracle's 1 round but stays bounded *)
  let delays = Proto.startup_delays p |> Array.map float_of_int in
  checkb "delays recorded" true (Array.length delays > 0);
  let mean = Vod_util.Stats.mean delays in
  checkb (Printf.sprintf "mean startup %.1f bounded" mean) true (mean < 25.0)

let suites =
  [
    ( "proto.protocol",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "single demand lifecycle" `Quick test_single_demand_completes;
        Alcotest.test_case "demand validation" `Quick test_demand_validation;
        Alcotest.test_case "message accounting" `Quick test_messages_flow;
        Alcotest.test_case "many demands complete" `Quick test_many_demands_complete;
        Alcotest.test_case "swarm uses caches" `Quick test_swarm_uses_caches;
        Alcotest.test_case "matches the oracle" `Quick test_protocol_matches_oracle_service;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Churn in the protocol                                               *)
(* ------------------------------------------------------------------ *)

let test_server_death_failover () =
  (* the viewer's current server dies mid-stream; with k >= 2 replicas
     the stream times out and fails over to another holder *)
  let cfg = build ~n:12 ~k:3 ~t:20 () in
  let p = Proto.create cfg in
  Proto.demand p ~box:0 ~video:0;
  (* let it reach streaming *)
  for _ = 1 to 20 do
    Proto.step p
  done;
  checkb "not yet complete" true (Proto.completed_demands p = 0);
  (* kill every holder of the preload stripe except the viewer: the
     k replicas of some stripe it needs *)
  let cat = Vod_model.Allocation.catalog cfg.Proto.alloc in
  let stripe0 = Vod_model.Catalog.stripe_id cat ~video:0 ~index:0 in
  let holders = Alloc_rows.boxes_of_stripe cfg.Proto.alloc stripe0 in
  (* kill one holder only — others must take over *)
  if Array.length holders > 0 && holders.(0) <> 0 then Proto.set_online p holders.(0) false;
  for _ = 1 to 120 do
    Proto.step p
  done;
  checki "viewer completed despite the death" 1 (Proto.completed_demands p)

let test_dead_box_messages_vanish () =
  let cfg = build ~n:8 () in
  let p = Proto.create cfg in
  Proto.demand p ~box:0 ~video:0;
  Proto.set_online p 0 false;
  checkb "offline not idle" false (Proto.is_idle p 0);
  checkb "session gone" true (Proto.stalled_demands p = 0);
  (* stepping past its pending replies must not crash or resurrect it *)
  for _ = 1 to 30 do
    Proto.step p
  done;
  checki "nothing completed" 0 (Proto.completed_demands p);
  Proto.set_online p 0 true;
  checkb "idle when back" true (Proto.is_idle p 0)

let test_churn_during_swarm () =
  (* steady churn of non-seed boxes while a swarm runs: every surviving
     demand completes *)
  let cfg = build ~n:20 ~k:3 ~t:12 () in
  let p = Proto.create cfg in
  let g = Prng.create ~seed:17 () in
  let m = Catalog.videos (Allocation.catalog cfg.Proto.alloc) in
  let dead = ref None in
  for round = 1 to 260 do
    if round <= 80 && round mod 5 = 0 then begin
      let b = Prng.int g 20 in
      if Proto.is_idle p b then Proto.demand p ~box:b ~video:(Prng.int g m)
    end;
    if round mod 20 = 0 then begin
      (match !dead with Some b -> Proto.set_online p b true | None -> ());
      (* kill an idle box so we only test server-side churn *)
      let candidates =
        List.filter (fun b -> Proto.is_idle p b) (List.init 20 Fun.id)
      in
      match candidates with
      | b :: _ ->
          Proto.set_online p b false;
          dead := Some b
      | [] -> dead := None
    end;
    Proto.step p
  done;
  checki "every surviving demand completed" 0 (Proto.stalled_demands p);
  checkb "some demands completed" true (Proto.completed_demands p > 3)

let churn_suite =
  ( "proto.churn",
    [
      Alcotest.test_case "server death failover" `Quick test_server_death_failover;
      Alcotest.test_case "dead box messages vanish" `Quick test_dead_box_messages_vanish;
      Alcotest.test_case "churn during swarm" `Quick test_churn_during_swarm;
    ] )

let suites = suites @ [ churn_suite ]
