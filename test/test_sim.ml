(* Tests for vod_sim: request lifecycle, preloading strategy, playback
   caches, matching failures and heterogeneous relaying. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A comfortable homogeneous test system: n boxes, u=2, d=4, c=2, k=2. *)
let build_system ?(n = 8) ?(u = 2.0) ?(d = 4.0) ?(c = 2) ?(mu = 2.0) ?(t = 10) ?(k = 2)
    ?(seed = 11) ?m () =
  let fleet = Box.Fleet.homogeneous ~n ~u ~d in
  let params = Params.make ~n ~c ~mu ~duration:t in
  let m = match m with Some m -> m | None -> Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let test_create_validation () =
  let params, fleet, alloc = build_system () in
  let wrong_params = Params.make ~n:9 ~c:2 ~mu:2.0 ~duration:10 in
  Alcotest.check_raises "fleet mismatch"
    (Invalid_argument "Engine.create: fleet size <> params.n") (fun () ->
      ignore (Engine.create ~params:wrong_params ~fleet ~alloc ()));
  let sim = Engine.create ~params ~fleet ~alloc () in
  checki "time starts at 0" 0 (Engine.now sim)

let test_single_demand_lifecycle () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  checkb "idle initially" true (Engine.is_idle sim 0);
  Engine.demand sim ~box:0 ~video:0;
  (* round 1: only the preload request is active *)
  let r1 = Engine.step sim in
  checki "round 1: one request" 1 r1.Engine.active_requests;
  checki "round 1: served" 1 r1.Engine.served;
  checki "round 1 unserved" 0 r1.Engine.unserved;
  checkb "box busy now" false (Engine.is_idle sim 0);
  (* round 2: preload + c-1 = 1 postponed *)
  let r2 = Engine.step sim in
  checki "round 2: two requests" 2 r2.Engine.active_requests;
  checki "round 2 unserved" 0 r2.Engine.unserved;
  (* drain: all requests finish after T service rounds each *)
  let rec drain i last =
    if i = 0 then last else drain (i - 1) (Engine.step sim)
  in
  let last = drain 14 r2 in
  checki "all drained" 0 last.Engine.active_requests;
  checkb "box idle again" true (Engine.is_idle sim 0)

let test_demand_on_busy_box_rejected () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Engine.demand sim ~box:0 ~video:0;
  Alcotest.check_raises "double demand" (Invalid_argument "Engine.demand: box is busy")
    (fun () -> Engine.demand sim ~box:0 ~video:1);
  ignore (Engine.step sim);
  Alcotest.check_raises "busy after step" (Invalid_argument "Engine.demand: box is busy")
    (fun () -> Engine.demand sim ~box:0 ~video:1)

let test_demand_validation () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Alcotest.check_raises "bad video" (Invalid_argument "Engine.demand: video out of range")
    (fun () -> Engine.demand sim ~box:0 ~video:10_000);
  Alcotest.check_raises "bad box" (Invalid_argument "Engine.demand: box out of range")
    (fun () -> Engine.demand sim ~box:(-1) ~video:0);
  Engine.set_online sim 0 false;
  Alcotest.check_raises "offline box" (Invalid_argument "Engine.demand: box is offline")
    (fun () -> Engine.demand sim ~box:0 ~video:0)

let test_swarm_tracking () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  checki "empty swarm" 0 (Engine.swarm_size sim 0);
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  checki "one member" 1 (Engine.swarm_size sim 0);
  Engine.demand sim ~box:1 ~video:0;
  ignore (Engine.step sim);
  checki "two members" 2 (Engine.swarm_size sim 0);
  (* push time beyond the window: members age out *)
  for _ = 1 to 12 do
    ignore (Engine.step sim)
  done;
  checki "swarm aged out" 0 (Engine.swarm_size sim 0)

let test_preload_counter_balances_stripes () =
  (* successive viewers of the same video must preload different
     stripes (round-robin), which the engine tracks per video *)
  let params, fleet, alloc = build_system ~n:8 ~c:2 () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  (* two boxes enter the same swarm in consecutive rounds *)
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  Engine.demand sim ~box:1 ~video:0;
  let r = Engine.step sim in
  (* no failure; both preloads plus box 0's postponed are in flight *)
  checki "requests in flight" 3 r.Engine.active_requests;
  checki "no unserved" 0 r.Engine.unserved

let test_cache_serving () =
  (* k=1, u=1 (2 slots at c=2): the lone allocation holder can serve
     box A's two stripes but not a second viewer; the later viewer must
     be fed from A's playback cache. *)
  let params, fleet, alloc = build_system ~n:6 ~u:1.0 ~d:4.0 ~c:2 ~k:1 ~m:4 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  (* pick a video and a demanding box that does not store it *)
  let video = 0 in
  let holder = (Alloc_rows.boxes_of_stripe alloc 0).(0) in
  let all = List.init 6 Fun.id in
  let viewers = List.filter (fun b -> b <> holder) all in
  let a = List.nth viewers 0 and b = List.nth viewers 1 in
  Engine.demand sim ~box:a ~video;
  ignore (Engine.step sim);
  ignore (Engine.step sim);
  Engine.demand sim ~box:b ~video;
  let reports = List.init 8 (fun _ -> Engine.step sim) in
  let m = Metrics.summarise reports in
  checki "no unserved" 0 m.Metrics.total_unserved;
  checkb "cache used" true (m.Metrics.cache_share > 0.0)

let test_defeated_raises () =
  (* u = 0.5 -> 1 slot per box at c=2; k=1; demand two videos whose
     stripes live on the same holder: capacity 1 < demand *)
  let params, fleet, _ = build_system ~n:4 ~u:0.5 ~d:4.0 ~c:2 ~k:1 ~m:2 () in
  (* hand-build a pathological allocation: all four stripes on box 0 *)
  let catalog = Catalog.create ~m:2 ~c:2 in
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] |]
  in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Engine.demand sim ~box:1 ~video:0;
  Engine.demand sim ~box:2 ~video:1;
  (* both preloads hit box 0 which has a single slot *)
  checkb "defeated" true
    (try
       ignore (Engine.step sim);
       false
     with Engine.Defeated r -> r.Engine.unserved > 0)

let test_continue_policy_records_violator () =
  let params, fleet, _ = build_system ~n:4 ~u:0.5 ~d:4.0 ~c:2 ~k:1 ~m:2 () in
  let catalog = Catalog.create ~m:2 ~c:2 in
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] |]
  in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.demand sim ~box:1 ~video:0;
  Engine.demand sim ~box:2 ~video:1;
  let r = Engine.step sim in
  checkb "some unserved" true (r.Engine.unserved > 0);
  (match Engine.last_violator sim with
  | None -> Alcotest.fail "expected a violator certificate"
  | Some v ->
      checkb "certificate violates Hall" true
        (v.Vod_graph.Bipartite.server_slots < List.length v.Vod_graph.Bipartite.requests));
  (* the engine keeps running *)
  let r2 = Engine.step sim in
  checkb "still running" true (r2.Engine.time = 2)

let test_determinism () =
  let run_once () =
    let params, fleet, alloc = build_system () in
    let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
    let g = Prng.create ~seed:3 () in
    let gen = Vod_workload.Generators.uniform_arrivals g ~rate:1.0 in
    Engine.run sim ~rounds:30 ~demands_for:gen
    |> List.map (fun r -> (r.Engine.active_requests, r.Engine.served, r.Engine.unserved))
  in
  checkb "bit-identical reruns" true (run_once () = run_once ())

let test_run_with_zipf_workload () =
  let params, fleet, alloc = build_system ~n:16 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:5 () in
  let gen = Vod_workload.Generators.zipf_arrivals g ~rate:2.0 ~s:0.9 in
  let reports = Engine.run sim ~rounds:50 ~demands_for:gen in
  let m = Metrics.summarise reports in
  checki "rounds" 50 m.Metrics.rounds;
  checkb "demand flowed" true (m.Metrics.total_demands > 20);
  checki "nothing unserved at u=2" 0 m.Metrics.total_unserved

let test_flash_crowd_respects_mu () =
  let params, fleet, alloc = build_system ~n:32 ~mu:1.3 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:6 () in
  let gen = Vod_workload.Generators.flash_crowd g ~video:0 () in
  let reports = Engine.run sim ~rounds:12 ~demands_for:gen in
  (* growth must never exceed the mu bound *)
  let previous = ref 0 in
  List.iter
    (fun r ->
      let size = !previous + r.Engine.new_demands in
      let bound =
        int_of_float (ceil (float_of_int (max !previous 1) *. 1.3)) in
      checkb "swarm growth bounded" true (size <= bound || r.Engine.new_demands = 0);
      previous := size)
    reports;
  let m = Metrics.summarise reports in
  checki "flash crowd served" 0 m.Metrics.total_unserved;
  checkb "caches carry the crowd" true (m.Metrics.cache_share > 0.2)

let test_relay_lifecycle () =
  (* 2 rich (u=3) + 2 poor (u=0.5) boxes; poor demands go through their
     relay on the doubled time scale *)
  let n = 4 in
  let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:10 in
  let m = 4 in
  let catalog = Catalog.create ~m ~c:2 in
  let g = Prng.create ~seed:7 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  match Vod_analysis.Theorem2.compensate fleet ~u_star:1.25 with
  | None -> Alcotest.fail "fleet should be compensable"
  | Some comp ->
      let sim = Engine.create ~params ~fleet ~alloc ~compensation:comp ~policy:Engine.Continue () in
      (* relays reduce rich matching capacity *)
      let rich = List.hd (Box.Fleet.rich_boxes fleet ~threshold:1.25) in
      checkb "rich capacity reduced by reservation" true
        (Engine.upload_slots_of_box sim rich < Params.upload_slots params 3.0);
      let poor = List.hd (Box.Fleet.poor_boxes fleet ~threshold:1.25) in
      Engine.demand sim ~box:poor ~video:0;
      let reports = List.init 16 (fun _ -> Engine.step sim) in
      let metrics = Metrics.summarise reports in
      checki "poor box fully served via relay" 0 metrics.Metrics.total_unserved;
      checkb "requests flowed" true (metrics.Metrics.total_served > 0);
      checkb "poor box idle at the end" true (Engine.is_idle sim poor)

let test_poor_box_plain_requests_allowed () =
  (* below-threshold boxes without relays issue plain requests — the
     regime of the paper's negative result *)
  let n = 4 in
  let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:10 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:7 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let poor = List.hd (Box.Fleet.poor_boxes fleet ~threshold:1.0) in
  Engine.demand sim ~box:poor ~video:0;
  let r = Engine.step sim in
  checki "request issued" 1 r.Engine.active_requests

(* ------------------------------------------------------------------ *)
(* Idle bookkeeping                                                    *)
(* ------------------------------------------------------------------ *)

type idle_op =
  | Try of int * int
  | Demand of int * int
  | Cancel of int
  | Online of int * bool
  | Helper of int * bool
  | Step

let idle_op_name = function
  | Try (b, v) -> Printf.sprintf "try %d %d" b v
  | Demand (b, v) -> Printf.sprintf "demand %d %d" b v
  | Cancel b -> Printf.sprintf "cancel %d" b
  | Online (b, f) -> Printf.sprintf "online %d %b" b f
  | Helper (b, f) -> Printf.sprintf "helper %d %b" b f
  | Step -> "step"

let idle_n = 10
let idle_m = 4
let idle_t = 6

(* The idle laws' systems: homogeneous, or two-class with Theorem 2
   relays, where a poor box's demand keeps it busy until t + T + 4.
   Returns the engine and the boxes that have a relay. *)
let idle_engine ~compensated =
  let n = idle_n and m = idle_m and t = idle_t in
  if not compensated then begin
    let params, fleet, alloc = build_system ~n ~m ~t () in
    (Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue (), fun _ -> false)
  end
  else begin
    let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
    let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:t in
    let catalog = Catalog.create ~m ~c:2 in
    let alloc =
      Vod_alloc.Schemes.random_permutation (Prng.create ~seed:7 ()) ~fleet ~catalog ~k:2
    in
    match Vod_analysis.Theorem2.compensate fleet ~u_star:1.25 with
    | None -> Alcotest.fail "the two-class idle fleet should be compensable"
    | Some comp ->
        let relayed b = comp.Vod_analysis.Theorem2.relay_of.(b) >= 0 in
        ( Engine.create ~params ~fleet ~alloc ~compensation:comp ~policy:Engine.Continue (),
          relayed )
  end

(* [is_idle] reads a per-box pending flag and the idle draw a per-box
   round; the model tracks the definitions instead.  A box is idle when
   online, busy_until <= now and no demand of it is pending; it may be
   drafted when idle and not a helper.  busy_until follows the request
   schedule: a demand turned into requests at round t keeps its box busy
   until t + T + 2, or t + T + 4 through a relay, and cancel or going
   offline frees the box at once. *)
let idle_matches_definition (compensated, ops) =
  let n = idle_n and t = idle_t in
  let sim, relayed = idle_engine ~compensated in
  let online = Array.make n true
  and helper = Array.make n false
  and busy_until = Array.make n 0
  and pending = Array.make n false
  and now = ref 0 in
  let idle b = online.(b) && busy_until.(b) <= !now && not pending.(b) in
  let draftable b = idle b && not helper.(b) in
  let boxes = List.init n Fun.id in
  let apply = function
    | Try (b, v) ->
        let admitted = Engine.try_demand sim ~box:b ~video:v = Engine.Admitted in
        if admitted <> draftable b then
          Alcotest.failf "try_demand %d disagrees with the model" b;
        if admitted then pending.(b) <- true
    | Demand (b, v) ->
        if draftable b then begin
          Engine.demand sim ~box:b ~video:v;
          pending.(b) <- true
        end
    | Cancel b ->
        Engine.cancel sim b;
        busy_until.(b) <- !now
    | Online (b, flag) ->
        Engine.set_online sim b flag;
        if online.(b) && not flag then begin
          pending.(b) <- false;
          busy_until.(b) <- !now
        end;
        online.(b) <- flag
    | Helper (b, flag) ->
        Engine.set_helper sim b flag;
        helper.(b) <- flag
    | Step ->
        incr now;
        Array.iteri
          (fun b p ->
            if p then begin
              pending.(b) <- false;
              busy_until.(b) <- !now + t + if relayed b then 4 else 2
            end)
          pending;
        ignore (Engine.step sim : Engine.round_report)
  in
  List.for_all
    (fun op ->
      apply op;
      let buf, len = Engine.borrow_idle sim in
      let expected = List.filter draftable boxes in
      List.for_all (fun b -> Engine.is_idle sim b = idle b) boxes
      && Array.to_list (Engine.idle_boxes sim) = expected
      && Array.to_list (Array.sub buf 0 len) = expected)
    ops

let idle_op_gen =
  let n = idle_n and m = idle_m in
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun b v -> Try (b, v)) (int_bound (n - 1)) (int_bound (m - 1)));
        (2, map2 (fun b v -> Demand (b, v)) (int_bound (n - 1)) (int_bound (m - 1)));
        (1, map (fun b -> Cancel b) (int_bound (n - 1)));
        (1, map2 (fun b f -> Online (b, f)) (int_bound (n - 1)) bool);
        (1, map2 (fun b f -> Helper (b, f)) (int_bound (n - 1)) bool);
        (3, return Step);
      ])

let idle_ops_arb =
  QCheck.make
    ~print:(fun (compensated, ops) ->
      Printf.sprintf "%s: %s"
        (if compensated then "compensated" else "homogeneous")
        (String.concat "; " (List.map idle_op_name ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 80) idle_op_gen))

let idle_qcheck =
  QCheck.Test.make ~count:200 ~name:"is_idle matches its definition" idle_ops_arb
    idle_matches_definition

(* The generators shuffle the engine's borrowed idle buffer in place
   ([Sample.shuffle_prefix]); before, they shuffled a fresh copy from
   [idle_boxes].  Both must draw the same boxes and leave the PRNG in
   the same state. *)
let borrowed_draw_matches_copy (compensated, ops) =
  let sim, _ = idle_engine ~compensated in
  let m = idle_m in
  let copy_draw g count =
    let idle = Engine.idle_boxes sim in
    let count = min count (Array.length idle) in
    if count = 0 then []
    else begin
      Sample.shuffle g idle;
      Array.to_list (Array.sub idle 0 count) |> List.map (fun b -> (b, Prng.int g m))
    end
  in
  List.for_all
    (fun op ->
      (match op with
      | Try (b, v) | Demand (b, v) -> ignore (Engine.try_demand sim ~box:b ~video:v : Engine.admit)
      | Cancel b -> Engine.cancel sim b
      | Online (b, flag) -> Engine.set_online sim b flag
      | Helper (b, flag) -> Engine.set_helper sim b flag
      | Step -> ignore (Engine.step sim : Engine.round_report));
      List.for_all
        (fun count ->
          let seed = (Engine.now sim * 31) + count in
          let g = Prng.create ~seed () and g' = Prng.create ~seed () in
          let drawn =
            Vod_workload.Generators.constant_per_round g ~per_round:count sim (Engine.now sim + 1)
          in
          drawn = copy_draw g' count && Prng.int64 g = Prng.int64 g')
        [ 0; 1; 3; idle_n ])
    ops

let borrowed_draw_qcheck =
  QCheck.Test.make ~count:200 ~name:"borrowed idle draw is the fresh-copy draw" idle_ops_arb
    borrowed_draw_matches_copy

(* ------------------------------------------------------------------ *)
(* Request store                                                       *)
(* ------------------------------------------------------------------ *)

type store_op =
  | S_demand of int * int
  | S_cancel of int
  | S_online of int * bool
  | S_repair of int * int * int
  | S_abort of int (* the k-th injected repair, modulo their count *)
  | S_step

let store_op_name = function
  | S_demand (b, v) -> Printf.sprintf "demand %d %d" b v
  | S_cancel b -> Printf.sprintf "cancel %d" b
  | S_online (b, f) -> Printf.sprintf "online %d %b" b f
  | S_repair (s, d, r) -> Printf.sprintf "repair %d -> %d (%d rounds)" s d r
  | S_abort k -> Printf.sprintf "abort #%d" k
  | S_step -> "step"

(* After every operation the store audits clean: each slot in the
   active set, the schedule or a window is live and there once, no freed
   slot is reachable.  Every operation frees slots before it takes new
   ones, so the pool never exceeds the largest live count seen between
   operations: freed slots are reused before new ones are minted. *)
let store_stays_sound (compensated, ops) =
  let sim, _ = idle_engine ~compensated in
  let injected = ref [] and peak = ref 0 in
  let apply = function
    | S_demand (b, v) -> ignore (Engine.try_demand sim ~box:b ~video:v : Engine.admit)
    | S_cancel b -> Engine.cancel sim b
    | S_online (b, flag) -> Engine.set_online sim b flag
    | S_repair (stripe, dest, rounds) ->
        if Engine.is_online sim dest then begin
          Engine.inject_repair sim ~stripe ~dest ~rounds;
          injected := (stripe, dest) :: !injected
        end
    | S_abort k -> (
        match !injected with
        | [] -> ()
        | l ->
            let stripe, dest = List.nth l (k mod List.length l) in
            ignore (Engine.abort_repair sim ~stripe ~dest : bool))
    | S_step -> ignore (Engine.step sim : Engine.round_report)
  in
  List.iter
    (fun op ->
      apply op;
      (match Engine.audit_requests sim with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "after %s: %s" (store_op_name op) e);
      let live, minted = Engine.request_slots sim in
      peak := max !peak live;
      if minted > !peak then
        QCheck.Test.fail_reportf "after %s: %d slots minted, peak live %d" (store_op_name op)
          minted !peak)
    ops;
  true

let store_qcheck =
  let n = idle_n and m = idle_m in
  let stripes = m * 2 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun b v -> S_demand (b, v)) (int_bound (n - 1)) (int_bound (m - 1)));
          (1, map (fun b -> S_cancel b) (int_bound (n - 1)));
          (1, map2 (fun b f -> S_online (b, f)) (int_bound (n - 1)) bool);
          ( 1,
            map3
              (fun s d r -> S_repair (s, d, r))
              (int_bound (stripes - 1)) (int_bound (n - 1)) (int_range 1 4) );
          (1, map (fun k -> S_abort k) (int_bound 16));
          (4, return S_step);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"request store stays sound"
    (QCheck.make
       ~print:(fun (compensated, ops) ->
         Printf.sprintf "%s: %s"
           (if compensated then "compensated" else "homogeneous")
           (String.concat "; " (List.map store_op_name ops)))
       QCheck.Gen.(pair bool (list_size (int_range 1 120) op)))
    store_stays_sound

(* ------------------------------------------------------------------ *)
(* Seat-while-walking equivalence                                      *)
(* ------------------------------------------------------------------ *)

(* A step seats each row on its lowest-id free candidate while walking
   the candidate lists, and builds and solves the instance only when a
   row finds no seat.  Whichever way a round went, solving its instance
   from scratch must reproduce the loads the engine reports and match
   every request the round served, faulted or repaired. *)

type walk_sys = Below | Above | Relayed

let walk_n = 16
let walk_m = 6

let walk_engine sys =
  let n = walk_n and m = walk_m and t = 5 in
  let params, fleet, alloc, compensation =
    match sys with
    | Below | Above ->
        let u = if sys = Below then 0.75 else 2.0 in
        let params, fleet, alloc = build_system ~n ~u ~m ~t ~seed:3 () in
        (params, fleet, alloc, None)
    | Relayed -> (
        let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
        let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:t in
        let catalog = Catalog.create ~m ~c:2 in
        let alloc =
          Vod_alloc.Schemes.random_permutation (Prng.create ~seed:5 ()) ~fleet ~catalog ~k:2
        in
        match Vod_analysis.Theorem2.compensate fleet ~u_star:1.25 with
        | None -> Alcotest.fail "the two-class walk fleet should be compensable"
        | Some comp -> (params, fleet, alloc, Some comp))
  in
  Engine.create ~params ~fleet ~alloc ?compensation ~policy:Engine.Continue ()

type walk_op =
  | W_demand of int * int
  | W_cancel of int
  | W_online of int * bool
  | W_group of int * bool (* boxes 4g .. 4g + 3 crash or rejoin together *)
  | W_repair of int * int * int
  | W_abort of int (* the k-th injected repair, modulo their count *)
  | W_helper of int * bool
  | W_step

let walk_op_name = function
  | W_demand (b, v) -> Printf.sprintf "demand %d %d" b v
  | W_cancel b -> Printf.sprintf "cancel %d" b
  | W_online (b, f) -> Printf.sprintf "online %d %b" b f
  | W_group (g, f) -> Printf.sprintf "group %d online %b" g f
  | W_repair (s, d, r) -> Printf.sprintf "repair %d -> %d (%d rounds)" s d r
  | W_abort k -> Printf.sprintf "abort #%d" k
  | W_helper (b, f) -> Printf.sprintf "helper %d %b" b f
  | W_step -> "step"

(* Dinic's greedy pass on a built instance: every row, in order, takes
   the first right of its sorted row with a free seat.  True when it
   seats them all. *)
let greedy_closes inst =
  let module B = Vod_graph.Bipartite in
  let csr = B.csr inst in
  let row_start = Vod_graph.Csr.row_start csr and col = Vod_graph.Csr.col csr in
  let cap = B.right_cap inst in
  let load = Array.make (B.n_right inst) 0 in
  let closes = ref true in
  for l = 0 to B.n_left inst - 1 do
    let rec first e =
      if e = row_start.(l + 1) then -1
      else if load.(col.(e)) < cap.(col.(e)) then col.(e)
      else first (e + 1)
    in
    let r = first row_start.(l) in
    if r < 0 then closes := false else load.(r) <- load.(r) + 1
  done;
  !closes

let walk_matches_solve (sys, faults, ops) =
  let e = walk_engine sys in
  if faults then
    Engine.set_link_faults e
      (Some (fun ~time ~owner ~server -> ((time * 31) + (owner * 7) + server) mod 5 = 0));
  let injected = ref [] in
  let recorder = Vod_obs.Span.create_recorder () in
  let check_round (r : Engine.round_report) =
    let built =
      List.exists
        (fun ev -> ev.Vod_obs.Span.name = "build")
        (Vod_obs.Span.events recorder)
    in
    Vod_obs.Span.clear recorder;
    match Engine.last_instance e with
    | None -> QCheck.Test.fail_reportf "round %d: no instance" r.Engine.time
    | Some inst ->
        let o = Vod_graph.Bipartite.solve inst in
        if o.Vod_graph.Bipartite.right_load <> Engine.last_loads e then
          QCheck.Test.fail_reportf "round %d: loads differ from a fresh solve" r.Engine.time;
        let counted = r.Engine.served + r.Engine.repair_served + r.Engine.faulted in
        if o.Vod_graph.Bipartite.matched <> counted then
          QCheck.Test.fail_reportf "round %d: matched %d, served + repaired + faulted %d"
            r.Engine.time o.Vod_graph.Bipartite.matched counted;
        if built = greedy_closes inst then
          QCheck.Test.fail_reportf "round %d: %s" r.Engine.time
            (if built then "built an instance greedy closes"
             else "greedy leaves a row free, yet nothing was built")
  in
  let apply = function
    | W_demand (b, v) -> ignore (Engine.try_demand e ~box:b ~video:v : Engine.admit)
    | W_cancel b -> Engine.cancel e b
    | W_online (b, flag) -> Engine.set_online e b flag
    | W_group (g, flag) ->
        for b = 4 * g to (4 * g) + 3 do
          Engine.set_online e b flag
        done
    | W_repair (stripe, dest, rounds) ->
        if Engine.is_online e dest then begin
          Engine.inject_repair e ~stripe ~dest ~rounds;
          injected := (stripe, dest) :: !injected
        end
    | W_abort k -> (
        match !injected with
        | [] -> ()
        | l ->
            let stripe, dest = List.nth l (k mod List.length l) in
            ignore (Engine.abort_repair e ~stripe ~dest : bool))
    | W_helper (b, flag) -> Engine.set_helper e b flag
    | W_step ->
        let r =
          Vod_obs.Span.install recorder;
          Fun.protect ~finally:Vod_obs.Span.uninstall (fun () -> Engine.step e)
        in
        check_round r
  in
  List.iter apply ops;
  true

let walk_qcheck =
  let n = walk_n and m = walk_m in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun b v -> W_demand (b, v)) (int_bound (n - 1)) (int_bound (m - 1)));
          (1, map (fun b -> W_cancel b) (int_bound (n - 1)));
          (1, map2 (fun b f -> W_online (b, f)) (int_bound (n - 1)) bool);
          (1, map2 (fun g f -> W_group (g, f)) (int_bound ((n / 4) - 1)) bool);
          ( 1,
            map3
              (fun s d r -> W_repair (s, d, r))
              (int_bound ((2 * m) - 1))
              (int_bound (n - 1)) (int_range 1 4) );
          (1, map (fun k -> W_abort k) (int_bound 16));
          (1, map2 (fun b f -> W_helper (b, f)) (int_bound (n - 1)) bool);
          (5, return W_step);
        ])
  in
  let sys_name = function Below -> "u=0.75" | Above -> "u=2" | Relayed -> "relayed" in
  QCheck.Test.make ~count:300 ~name:"walk equals a fresh solve of the round's instance"
    (QCheck.make
       ~print:(fun (sys, faults, ops) ->
         Printf.sprintf "%s%s: %s" (sys_name sys)
           (if faults then " + link faults" else "")
           (String.concat "; " (List.map walk_op_name ops)))
       QCheck.Gen.(
         triple (oneofl [ Below; Above; Relayed ]) bool (list_size (int_range 1 120) op)))
    walk_matches_solve

(* A round the walk closed builds its instance on the first
   [last_instance] call; a change to the rows before that call leaves
   nothing to build.  A stall round's instance is built by the step. *)
let test_deferred_instance () =
  let params, fleet, alloc = build_system ~n:8 () in
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let closed_round () =
    let r = Engine.step e in
    checki "round closed" 0 r.Engine.unserved
  in
  Engine.demand e ~box:0 ~video:0;
  Engine.demand e ~box:1 ~video:1;
  closed_round ();
  checkb "built on demand" true (Option.is_some (Engine.last_instance e));
  Engine.set_online e 5 false;
  checkb "still the round's instance once built" true
    (Option.is_some (Engine.last_instance e));
  closed_round ();
  Engine.set_online e 5 true;
  checkb "none after set_online" true (Engine.last_instance e = None);
  closed_round ();
  ignore (Engine.try_demand e ~box:3 ~video:2 : Engine.admit);
  checkb "a new demand leaves the rows alone" true
    (Option.is_some (Engine.last_instance e));
  closed_round ();
  Engine.cancel e 0;
  checkb "none after cancel" true (Engine.last_instance e = None);
  closed_round ();
  checkb "a no-op cancel leaves the rows alone" true
    (Engine.cancel e 0;
     Option.is_some (Engine.last_instance e));
  (* below the threshold: a stall round builds in the step *)
  let params, fleet, alloc = build_system ~n:8 ~u:0.5 () in
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  for b = 0 to 7 do
    Engine.demand e ~box:b ~video:(b mod 2)
  done;
  let r = Engine.step e and r' = Engine.step e in
  checkb "the system stalls" true (r.Engine.unserved + r'.Engine.unserved > 0);
  Engine.set_online e 0 false;
  checkb "a stall round's instance survives" true (Option.is_some (Engine.last_instance e))

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)
(* ------------------------------------------------------------------ *)

(* Words allocated per round per active request of a warmed n=4096
   engine under Poisson arrivals, on both heaps: minor + major -
   promoted, so arrays too large for the minor heap count too.  The
   count is deterministic.

   The minor-heap count alone was 231.4 with list-rebuilt request sets,
   a boxed-int64 generator and a closure scanning the pending demands in
   every idle test, and 8.5 with in-place compaction, the unboxed
   generator and the pending flag; its bound was their geometric mean
   (44).

   Counting both heaps, it was 16.40 with a pending-edge build, a
   per-row [emit] closure in [Csr.rebuild_rows], the [Array.sub] outcome
   copies and [Array.mem] in [Allocation.possesses], and it is 9.39 with
   the row-major build, one [emit] per rebuild, the outcome read from the
   arena and a plain loop in [possesses].  The bound was their geometric
   mean (12.4): either the per-row closure or the outcome copies alone
   would exceed it.

   [Gc.quick_stat]'s minor count only moves at a minor collection, so
   the minor words are read from [Gc.minor_words], which includes the
   live minor heap.  Measured so, it was 8.87 with boxed request
   records, per-round copies of the active set and of the idle boxes,
   and it is 1.04 with the slot store, the index rings and the borrowed
   idle buffer.  The bound is their geometric mean (3.04): a per-round
   copy of either set alone would exceed it. *)
let test_engine_alloc_guard () =
  let sys =
    Vod.System.homogeneous ~seed:5 ~m:512 ~n:4096 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
      ~duration:15 ()
  in
  let sim =
    Engine.create ~params:sys.Vod.System.params ~fleet:sys.Vod.System.fleet
      ~alloc:sys.Vod.System.alloc ~policy:Engine.Continue ()
  in
  let arrivals =
    Vod_workload.Generators.uniform_arrivals (Prng.create ~seed:7 ()) ~rate:30.0
  in
  let round () =
    let time = Engine.now sim + 1 in
    List.iter
      (fun (box, video) -> ignore (Engine.try_demand sim ~box ~video : Engine.admit))
      (arrivals sim time);
    Engine.step sim
  in
  for _ = 1 to 20 do
    ignore (round () : Engine.round_report)
  done;
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let active = ref 0 in
  for _ = 1 to 20 do
    let r = round () in
    active := !active + r.Engine.active_requests
  done;
  let per_request = (words () -. w0) /. float_of_int !active in
  if per_request > 3.04 then
    Alcotest.failf "%.2f words per round per active request (bound 3.04)" per_request

let test_metrics_summarise_empty () =
  let m = Metrics.summarise [] in
  checki "rounds" 0 m.Metrics.rounds;
  checkb "all served vacuously" true (Metrics.all_served m)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "single demand lifecycle" `Quick test_single_demand_lifecycle;
        Alcotest.test_case "busy box rejected" `Quick test_demand_on_busy_box_rejected;
        Alcotest.test_case "demand validation" `Quick test_demand_validation;
        Alcotest.test_case "swarm tracking" `Quick test_swarm_tracking;
        Alcotest.test_case "preload counter" `Quick test_preload_counter_balances_stripes;
        Alcotest.test_case "cache serving" `Quick test_cache_serving;
        Alcotest.test_case "defeated raises" `Quick test_defeated_raises;
        Alcotest.test_case "continue policy + violator" `Quick test_continue_policy_records_violator;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "zipf workload" `Quick test_run_with_zipf_workload;
        Alcotest.test_case "flash crowd" `Quick test_flash_crowd_respects_mu;
      ] );
    ( "sim.relay",
      [
        Alcotest.test_case "relay lifecycle" `Quick test_relay_lifecycle;
        Alcotest.test_case "poor box plain requests" `Quick test_poor_box_plain_requests_allowed;
      ] );
    ( "sim.metrics",
      [ Alcotest.test_case "empty summary" `Quick test_metrics_summarise_empty ] );
    ( "sim.idle",
      [
        QCheck_alcotest.to_alcotest idle_qcheck;
        QCheck_alcotest.to_alcotest borrowed_draw_qcheck;
      ] );
    ("sim.store", [ QCheck_alcotest.to_alcotest store_qcheck ]);
    ( "sim.walk",
      [
        QCheck_alcotest.to_alcotest walk_qcheck;
        Alcotest.test_case "deferred instance" `Quick test_deferred_instance;
      ] );
    ( "sim.alloc",
      [ Alcotest.test_case "engine allocation guard" `Quick test_engine_alloc_guard ] );
  ]
