(* Tests for the extension features: min-cost matching, the
   cache-preferring scheduler, churn injection, Lemma 2 trace checks and
   allocation (de)serialisation. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics
module Mcmf = Vod_graph.Min_cost_flow
module Bipartite = Vod_graph.Bipartite

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Min-cost flow                                                       *)
(* ------------------------------------------------------------------ *)

let test_mcmf_simple_path () =
  let net = Mcmf.create 3 in
  let a = Mcmf.add_edge net ~src:0 ~dst:1 ~cap:5 ~cost:2 in
  let b = Mcmf.add_edge net ~src:1 ~dst:2 ~cap:3 ~cost:1 in
  let flow, cost = Mcmf.solve net ~src:0 ~sink:2 in
  checki "flow" 3 flow;
  checki "cost" 9 cost;
  checki "edge a flow" 3 (Mcmf.flow net a);
  checki "edge b flow" 3 (Mcmf.flow net b)

let test_mcmf_prefers_cheap_path () =
  (* two parallel unit paths; the cheap one must carry flow first *)
  let net = Mcmf.create 4 in
  let cheap = Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:0 in
  ignore (Mcmf.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:0);
  let pricey = Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:10 in
  ignore (Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:0);
  let flow, cost = Mcmf.solve net ~src:0 ~sink:3 in
  checki "both paths used at max flow" 2 flow;
  checki "total cost" 10 cost;
  checki "cheap saturated" 1 (Mcmf.flow net cheap);
  checki "pricey saturated" 1 (Mcmf.flow net pricey)

let test_mcmf_cost_vs_maxflow () =
  (* max flow must never be sacrificed for cost *)
  let net = Mcmf.create 3 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~cap:2 ~cost:100);
  ignore (Mcmf.add_edge net ~src:1 ~dst:2 ~cap:2 ~cost:100);
  let flow, cost = Mcmf.solve net ~src:0 ~sink:2 in
  checki "flow maximal despite cost" 2 flow;
  checki "cost" 400 cost

let test_mcmf_rerouting () =
  (* classic instance where the second augmentation must push flow back
     along a residual arc to stay optimal *)
  let net = Mcmf.create 4 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1);
  ignore (Mcmf.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:3);
  ignore (Mcmf.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:(-2));
  ignore (Mcmf.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:4);
  ignore (Mcmf.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1);
  let flow, cost = Mcmf.solve net ~src:0 ~sink:3 in
  checki "flow" 2 flow;
  (* flow conservation forces f12 = 0 here (2->3 has capacity 1), so
     the unique max flow routes 0->1->3 and 0->2->3: cost 9 *)
  checki "min cost" 9 cost

let test_mcmf_invalid () =
  let net = Mcmf.create 2 in
  Alcotest.check_raises "src=sink" (Invalid_argument "Min_cost_flow.solve: src = sink")
    (fun () -> ignore (Mcmf.solve net ~src:1 ~sink:1));
  Alcotest.check_raises "neg cap"
    (Invalid_argument "Min_cost_flow.add_edge: negative capacity") (fun () ->
      ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~cap:(-1) ~cost:0))

(* ------------------------------------------------------------------ *)
(* Bipartite.solve_min_cost                                            *)
(* ------------------------------------------------------------------ *)

let test_min_cost_matching_size_matches_solve () =
  let g = Prng.create ~seed:3 () in
  for _ = 1 to 40 do
    let n_left = 1 + Prng.int g 8 and n_right = 1 + Prng.int g 6 in
    let right_cap = Array.init n_right (fun _ -> Prng.int g 3) in
    let inst =
      Bipartite.create ~n_left ~n_right ~right_cap ~fill:(fun _ emit ->
          for r = 0 to n_right - 1 do
            if Prng.float g 1.0 < 0.5 then emit r
          done)
    in
    let plain = (Bipartite.solve inst).Bipartite.matched in
    let costed =
      (Bipartite.solve_min_cost inst ~edge_cost:(fun ~left ~right -> left + right))
        .Bipartite.matched
    in
    checki "cardinality preserved" plain costed
  done

let test_min_cost_matching_picks_cheap_edges () =
  (* one request, two boxes; the zero-cost box must win *)
  let inst =
    Bipartite.create ~n_left:1 ~n_right:2 ~right_cap:[| 1; 1 |] ~fill:(fun _ emit ->
        emit 0;
        emit 1)
  in
  let o =
    Bipartite.solve_min_cost inst ~edge_cost:(fun ~left:_ ~right -> if right = 0 then 5 else 0)
  in
  checki "cheap box chosen" 1 o.Bipartite.assignment.(0)

(* ------------------------------------------------------------------ *)
(* Greedy proposal matching                                            *)
(* ------------------------------------------------------------------ *)

let random_instance g ~n_left ~n_right =
  let right_cap = Array.init n_right (fun _ -> Prng.int g 3) in
  Bipartite.create ~n_left ~n_right ~right_cap ~fill:(fun _ emit ->
      for r = 0 to n_right - 1 do
        if Prng.float g 1.0 < 0.4 then emit r
      done)

let greedy_outcome_valid inst (o : Bipartite.outcome) =
  let adj = (Vod_check.Instance.of_bipartite inst).adj in
  let cap = Bipartite.right_cap inst in
  let load = Array.make (Bipartite.n_right inst) 0 in
  let ok = ref true in
  Array.iteri
    (fun l r ->
      if r >= 0 then begin
        if not (Array.mem r adj.(l)) then ok := false;
        load.(r) <- load.(r) + 1
      end)
    o.Bipartite.assignment;
  Array.iteri (fun r c -> if c > cap.(r) then ok := false) load;
  !ok

let test_greedy_valid_and_bounded () =
  let g = Prng.create ~seed:31 () in
  for _ = 1 to 40 do
    let inst = random_instance g ~n_left:(1 + Prng.int g 10) ~n_right:(1 + Prng.int g 8) in
    let optimal = (Bipartite.solve inst).Bipartite.matched in
    let greedy = Bipartite.solve_greedy ~rounds:3 g inst in
    checkb "valid matching" true (greedy_outcome_valid inst greedy);
    checkb "never exceeds optimum" true (greedy.Bipartite.matched <= optimal)
  done

let test_greedy_stable_is_half_optimal () =
  (* a maximal matching is at least half a maximum one; a round in
     which some request can propose seats at least one, so [n_left]
     rounds reach a maximal matching *)
  let g = Prng.create ~seed:37 () in
  for _ = 1 to 40 do
    let n_right = 1 + Prng.int g 8 in
    let n_left = 1 + Prng.int g 12 in
    let inst = random_instance g ~n_left ~n_right in
    let optimal = (Bipartite.solve inst).Bipartite.matched in
    let stable = Bipartite.solve_greedy ~rounds:n_left g inst in
    checkb "valid" true (greedy_outcome_valid inst stable);
    checkb
      (Printf.sprintf "maximal >= opt/2 (%d vs %d)" stable.Bipartite.matched optimal)
      true
      (2 * stable.Bipartite.matched >= optimal)
  done

let test_greedy_warm_start_respected () =
  let inst =
    Bipartite.create ~n_left:2 ~n_right:2 ~right_cap:[| 1; 1 |] ~fill:(fun l emit ->
        if l = 0 then emit 0;
        emit 1)
  in
  let g = Prng.create ~seed:41 () in
  (* request 0 was on box 1 last round; with the seat honoured first,
     request 1 can end up unmatched only if box 1 taken — it has no
     other edge, so warm-start keeps 0 on 1 and 1 starves *)
  let o = Bipartite.solve_greedy ~warm_start:[| 1; -1 |] ~rounds:5 g inst in
  checki "request 0 keeps its server" 1 o.Bipartite.assignment.(0);
  (* invalid warm entries are ignored *)
  let o2 = Bipartite.solve_greedy ~warm_start:[| 7; -1 |] ~rounds:5 g inst in
  checkb "bad seat ignored, matching still valid" true (greedy_outcome_valid inst o2)

let test_greedy_warm_start_length () =
  let inst =
    Bipartite.create ~n_left:2 ~n_right:1 ~right_cap:[| 1 |] ~fill:(fun _ _ -> ())
  in
  let g = Prng.create () in
  Alcotest.check_raises "length"
    (Invalid_argument "Bipartite.solve_greedy: warm_start length mismatch") (fun () ->
      ignore (Bipartite.solve_greedy ~warm_start:[| 0 |] ~rounds:1 g inst))

let test_greedy_scheduler_in_engine () =
  let fleet = Box.Fleet.homogeneous ~n:16 ~u:2.0 ~d:4.0 in
  let params = Params.make ~n:16 ~c:2 ~mu:2.0 ~duration:12 in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c:2 ~k:2 in
  let catalog = Catalog.create ~m ~c:2 in
  let ag = Prng.create ~seed:5 () in
  let alloc = Vod_alloc.Schemes.random_permutation ag ~fleet ~catalog ~k:2 in
  let sim =
    Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue
      ~scheduler:(Engine.Greedy_proposals 3) ()
  in
  let g = Prng.create ~seed:43 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:2.0 in
  let reports = Engine.run sim ~rounds:25 ~demands_for:gen in
  let m = Metrics.summarise reports in
  checkb "mostly served without a coordinator" true
    (float_of_int m.Metrics.total_served
    /. float_of_int (max 1 (m.Metrics.total_served + m.Metrics.total_unserved))
    > 0.95)

(* ------------------------------------------------------------------ *)
(* Scheduler: Prefer_cache                                             *)
(* ------------------------------------------------------------------ *)

let build ?(n = 16) ?(u = 2.0) ?(c = 2) ?(k = 2) ?(mu = 2.0) ?(t = 12) ?(seed = 5) () =
  let fleet = Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let params = Params.make ~n ~c ~mu ~duration:t in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let run_crowd ~scheduler =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ~scheduler () in
  let g = Prng.create ~seed:7 () in
  let gen = Vod_workload.Generators.flash_crowd g ~video:0 () in
  let reports = Engine.run sim ~rounds:20 ~demands_for:gen in
  Metrics.summarise reports

let test_prefer_cache_serves_everything () =
  let m = run_crowd ~scheduler:Engine.Prefer_cache in
  checki "all served" 0 m.Metrics.total_unserved

let test_prefer_cache_raises_cache_share () =
  let arbitrary = run_crowd ~scheduler:Engine.Arbitrary in
  let prefer = run_crowd ~scheduler:Engine.Prefer_cache in
  checkb "same served volume" true
    (arbitrary.Metrics.total_served = prefer.Metrics.total_served);
  checkb
    (Printf.sprintf "cache share not lower (%.3f vs %.3f)" prefer.Metrics.cache_share
       arbitrary.Metrics.cache_share)
    true
    (prefer.Metrics.cache_share >= arbitrary.Metrics.cache_share -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let test_offline_box_loses_requests () =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  checkb "requests in flight" true (Engine.active_request_count sim > 0);
  Engine.set_online sim 0 false;
  checkb "offline" false (Engine.is_online sim 0);
  checki "its requests dropped" 0 (Engine.active_request_count sim);
  checkb "not idle while offline" false (Engine.is_idle sim 0);
  Engine.set_online sim 0 true;
  checkb "idle when back" true (Engine.is_idle sim 0)

let test_offline_replicas_unusable () =
  (* all stripes of video 0 live on box 0 only; kill box 0 and a viewer
     cannot be served *)
  let n = 4 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:8 in
  let fleet = Box.Fleet.homogeneous ~n ~u:2.0 ~d:4.0 in
  let catalog = Catalog.create ~m:1 ~c:2 in
  let alloc = Allocation.of_replica_lists ~catalog ~n_boxes:n [| [| 0 |]; [| 0 |] |] in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.set_online sim 0 false;
  Engine.demand sim ~box:1 ~video:0;
  let r = Engine.step sim in
  checki "preload unservable" 1 r.Engine.unserved;
  (* resurrect the holder: service resumes *)
  Engine.set_online sim 0 true;
  let r2 = Engine.step sim in
  checki "served once holder is back" 0 r2.Engine.unserved

let test_churn_resilience_with_replication () =
  (* with k=3 replicas, losing one random box per 5 rounds is invisible *)
  let n = 24 in
  let fleet = Box.Fleet.homogeneous ~n ~u:2.0 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:2.0 ~duration:10 in
  let k = 3 in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c:2 ~k in
  let catalog = Catalog.create ~m ~c:2 in
  let g = Prng.create ~seed:11 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let wg = Prng.create ~seed:13 () in
  let gen = Vod_workload.Generators.uniform_arrivals wg ~rate:1.5 in
  let cg = Prng.create ~seed:17 () in
  let unserved = ref 0 in
  let offline = ref None in
  for round = 1 to 40 do
    (* rolling churn: one box at a time leaves for 5 rounds, then a
       different one does — with k = 3 replicas a single absence can
       never orphan a stripe *)
    if round mod 5 = 0 then begin
      (match !offline with Some b -> Engine.set_online sim b true | None -> ());
      let b = Prng.int cg n in
      Engine.set_online sim b false;
      offline := Some b
    end;
    List.iter
      (fun (b, v) -> if Engine.is_idle sim b then Engine.demand sim ~box:b ~video:v)
      (gen sim (Engine.now sim + 1));
    let r = Engine.step sim in
    unserved := !unserved + r.Engine.unserved
  done;
  checki "replication hides churn" 0 !unserved

(* ------------------------------------------------------------------ *)
(* Lemma 2 on live traces                                              *)
(* ------------------------------------------------------------------ *)

let test_lemma2_bound_formula () =
  (* i = 100 requests on one distinct stripe, c = 4, mu = 1:
     numerator 100 - (c + 2mu^2 - 1) = 95, denominator c + 2(mu^2-1) = 4 *)
  let b = Vod_analysis.Theorem1.lemma2_lower_bound ~c:4 ~mu:1.0 ~i:100 ~i1:1 in
  Alcotest.check (Alcotest.float 1e-9) "value" (95.0 /. 4.0) b

let test_lemma2_holds_on_flash_crowd () =
  let params, fleet, alloc = build ~n:32 ~mu:1.3 ~t:15 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:19 () in
  let gen = Vod_workload.Generators.flash_crowd g ~video:0 () in
  for _ = 1 to 15 do
    List.iter
      (fun (b, v) -> if Engine.is_idle sim b then Engine.demand sim ~box:b ~video:v)
      (gen sim (Engine.now sim + 1));
    ignore (Engine.step sim);
    List.iter
      (fun (_video, i, i1, servers) ->
        let bound =
          Vod_analysis.Theorem1.lemma2_lower_bound
            ~c:(Engine.params sim).Params.c
            ~mu:(Engine.params sim).Params.mu ~i ~i1
        in
        checkb
          (Printf.sprintf "|B(X)|=%d >= %.2f (i=%d i1=%d)" servers bound i i1)
          true
          (float_of_int servers >= bound -. 1e-9))
      (Engine.video_request_stats sim)
  done

let test_last_loads_respect_capacity () =
  let params, fleet, alloc = build () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:23 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:3.0 in
  for _ = 1 to 20 do
    List.iter
      (fun (b, v) -> if Engine.is_idle sim b then Engine.demand sim ~box:b ~video:v)
      (gen sim (Engine.now sim + 1));
    ignore (Engine.step sim);
    Array.iteri
      (fun b load ->
        checkb "load within slots" true (load <= Engine.upload_slots_of_box sim b))
      (Engine.last_loads sim)
  done

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip alloc =
  match Codec.of_string (Codec.to_string alloc) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok alloc' ->
      let cat = Allocation.catalog alloc in
      checki "m" (Catalog.videos cat) (Catalog.videos (Allocation.catalog alloc'));
      checki "boxes" (Allocation.n_boxes alloc) (Allocation.n_boxes alloc');
      for s = 0 to Catalog.total_stripes cat - 1 do
        Alcotest.check (Alcotest.array Alcotest.int) "replicas"
          (Alloc_rows.boxes_of_stripe alloc s)
          (Alloc_rows.boxes_of_stripe alloc' s)
      done

let test_codec_roundtrip_random () =
  let g = Prng.create ~seed:29 () in
  let fleet = Box.Fleet.homogeneous ~n:12 ~u:1.5 ~d:3.0 in
  let catalog = Catalog.create ~m:9 ~c:2 in
  roundtrip (Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2)

let test_codec_roundtrip_sparse () =
  let catalog = Catalog.create ~m:2 ~c:2 in
  (* a stripe with no replica must survive the roundtrip *)
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:3 [| [| 0; 2 |]; [||]; [| 1 |]; [||] |]
  in
  roundtrip alloc

let test_codec_rejects_garbage () =
  checkb "bad header" true (Result.is_error (Codec.of_string "nonsense"));
  checkb "empty" true (Result.is_error (Codec.of_string ""));
  checkb "truncated" true (Result.is_error (Codec.of_string "vod-allocation v1"));
  checkb "bad stripe id" true
    (Result.is_error
       (Codec.of_string "vod-allocation v1\ncatalog 1 1\nboxes 2\n9: 0"));
  checkb "bad box id" true
    (Result.is_error (Codec.of_string "vod-allocation v1\ncatalog 1 1\nboxes 2\n0: 7"))

let test_codec_file_roundtrip () =
  let g = Prng.create ~seed:31 () in
  let fleet = Box.Fleet.homogeneous ~n:6 ~u:2.0 ~d:2.0 in
  let catalog = Catalog.create ~m:3 ~c:2 in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  let path = Filename.temp_file "vod_alloc" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save alloc ~path;
      match Codec.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok alloc' ->
          checki "same box count" (Allocation.n_boxes alloc) (Allocation.n_boxes alloc'))

let suites =
  [
    ( "graph.min_cost_flow",
      [
        Alcotest.test_case "simple path" `Quick test_mcmf_simple_path;
        Alcotest.test_case "prefers cheap path" `Quick test_mcmf_prefers_cheap_path;
        Alcotest.test_case "cost never reduces flow" `Quick test_mcmf_cost_vs_maxflow;
        Alcotest.test_case "rerouting optimality" `Quick test_mcmf_rerouting;
        Alcotest.test_case "invalid" `Quick test_mcmf_invalid;
        Alcotest.test_case "matching size preserved" `Quick test_min_cost_matching_size_matches_solve;
        Alcotest.test_case "cheap edges chosen" `Quick test_min_cost_matching_picks_cheap_edges;
      ] );
    ( "graph.greedy_matching",
      [
        Alcotest.test_case "valid and bounded" `Quick test_greedy_valid_and_bounded;
        Alcotest.test_case "maximal >= half optimal" `Quick test_greedy_stable_is_half_optimal;
        Alcotest.test_case "warm start respected" `Quick test_greedy_warm_start_respected;
        Alcotest.test_case "warm start length" `Quick test_greedy_warm_start_length;
        Alcotest.test_case "engine integration" `Quick test_greedy_scheduler_in_engine;
      ] );
    ( "sim.scheduler",
      [
        Alcotest.test_case "prefer-cache serves all" `Quick test_prefer_cache_serves_everything;
        Alcotest.test_case "prefer-cache raises cache share" `Quick test_prefer_cache_raises_cache_share;
      ] );
    ( "sim.churn",
      [
        Alcotest.test_case "offline drops requests" `Quick test_offline_box_loses_requests;
        Alcotest.test_case "offline replicas unusable" `Quick test_offline_replicas_unusable;
        Alcotest.test_case "replication hides churn" `Quick test_churn_resilience_with_replication;
      ] );
    ( "sim.lemma2",
      [
        Alcotest.test_case "bound formula" `Quick test_lemma2_bound_formula;
        Alcotest.test_case "holds on flash crowd" `Quick test_lemma2_holds_on_flash_crowd;
        Alcotest.test_case "loads respect capacity" `Quick test_last_loads_respect_capacity;
      ] );
    ( "model.codec",
      [
        Alcotest.test_case "roundtrip random" `Quick test_codec_roundtrip_random;
        Alcotest.test_case "roundtrip sparse" `Quick test_codec_roundtrip_sparse;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
      ] );
  ]
