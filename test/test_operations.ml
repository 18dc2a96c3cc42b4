(* Tests for the operational features: replication repair, viewer
   cancellation, fleet serialisation and the
   heterogeneous certified replication. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Repair = Vod_alloc.Repair

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build_alloc ?(n = 12) ?(m = 12) ?(c = 2) ?(k = 3) ?(d = 4.0) ?(seed = 5) () =
  let fleet = Box.Fleet.homogeneous ~n ~u:2.0 ~d in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  (* independent placement guarantees exactly k distinct holders per
     stripe, which the repair tests rely on *)
  let alloc = Vod_alloc.Schemes.random_independent g ~fleet ~catalog ~k in
  (fleet, alloc)

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let test_under_replicated_detection () =
  let _, alloc = build_alloc () in
  let n = Allocation.n_boxes alloc in
  let alive = Array.make n true in
  checkb "fully replicated initially" true
    (Repair.under_replicated ~alloc ~alive ~target_k:3 = []);
  (* kill one box: every stripe it held drops below target *)
  alive.(0) <- false;
  let hurt = Repair.under_replicated ~alloc ~alive ~target_k:3 in
  checki "exactly its stripes" (Allocation.box_load alloc 0) (List.length hurt);
  List.iter
    (fun s -> checkb "box 0 held it" true (Allocation.possesses alloc ~box:0 ~stripe:s))
    hurt

let test_repair_restores_target () =
  let fleet, alloc = build_alloc ~m:8 () in
  let n = Allocation.n_boxes alloc in
  let alive = Array.make n true in
  alive.(0) <- false;
  alive.(1) <- false;
  let g = Prng.create ~seed:7 () in
  match Repair.repair g ~fleet ~alloc ~alive ~target_k:3 with
  | Error e -> Alcotest.failf "repair failed: %s" e
  | Ok (alloc', report) ->
      checkb "replicas were added" true (report.Repair.replicas_added > 0);
      checki "everything repairable here" 0 report.Repair.unrepairable;
      checkb "no under-replication remains" true
        (Repair.under_replicated ~alloc:alloc' ~alive ~target_k:3 = []);
      (* repaired allocation still fits storage *)
      checkb "validates" true (Allocation.validate alloc' ~fleet ~c:2 = Ok ())

let test_repair_lost_stripe_unrepairable () =
  (* a stripe whose every replica is dead cannot be repaired *)
  let catalog = Catalog.create ~m:1 ~c:1 in
  let fleet = Box.Fleet.homogeneous ~n:4 ~u:1.0 ~d:2.0 in
  let alloc = Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0; 1 |] |] in
  let alive = [| false; false; true; true |] in
  let g = Prng.create ~seed:9 () in
  match Repair.repair g ~fleet ~alloc ~alive ~target_k:2 with
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok (_, report) ->
      checki "unrepairable counted" 1 report.Repair.unrepairable;
      checki "nothing repaired" 0 report.Repair.repaired_stripes

let test_repair_respects_capacity () =
  (* tiny storage: repair must not overfill boxes *)
  let fleet, alloc = build_alloc ~n:6 ~m:6 ~d:2.0 ~k:2 () in
  let n = Allocation.n_boxes alloc in
  let alive = Array.make n true in
  alive.(0) <- false;
  let g = Prng.create ~seed:11 () in
  match Repair.repair g ~fleet ~alloc ~alive ~target_k:2 with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok (alloc', _) -> checkb "validates" true (Allocation.validate alloc' ~fleet ~c:2 = Ok ())

let test_repair_input_validation () =
  let fleet, alloc = build_alloc () in
  let g = Prng.create () in
  checkb "bad alive size" true
    (Result.is_error (Repair.repair g ~fleet ~alloc ~alive:[| true |] ~target_k:2))

let replica_lists alloc =
  let total = Catalog.total_stripes (Allocation.catalog alloc) in
  List.init total (fun s ->
      Allocation.boxes_of_stripe alloc s |> Array.to_list |> List.sort compare)

(* Pins the determinism contract of Repair.repair (ascending stripe
   order, one shuffle per stripe): same seed and inputs must yield a
   bit-identical repaired allocation, run after run and across OCaml
   versions (the PRNG is the library's own), including the golden donor
   sets below. *)
let test_repair_determinism () =
  let fleet, alloc = build_alloc ~n:8 ~m:6 ~c:2 ~k:3 ~d:4.0 ~seed:3 () in
  let n = Allocation.n_boxes alloc in
  let alive = Array.make n true in
  alive.(1) <- false;
  alive.(4) <- false;
  let run () =
    let g = Prng.create ~seed:21 () in
    match Repair.repair g ~fleet ~alloc ~alive ~target_k:3 with
    | Error e -> Alcotest.failf "repair: %s" e
    | Ok (alloc', report) -> (replica_lists alloc', report)
  in
  let lists1, report1 = run () in
  let lists2, report2 = run () in
  checkb "same seed, same repaired allocation" true (lists1 = lists2);
  checkb "same seed, same report" true (report1 = report2);
  (* a different seed picks different donors somewhere (8 choose-sets,
     overwhelmingly unlikely to coincide) but repairs just as much *)
  let g' = Prng.create ~seed:22 () in
  (match Repair.repair g' ~fleet ~alloc ~alive ~target_k:3 with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok (alloc'', report'') ->
      checki "same repair volume" report1.Repair.replicas_added
        report''.Repair.replicas_added;
      checkb "seed matters" true (replica_lists alloc'' <> lists1));
  (* golden pin: the exact donor sets for this (seed, alloc, alive)
     triple.  If this ever changes, the repair PRNG consumption order
     changed — a reproducibility break, not a harmless refactor. *)
  let rendered =
    String.concat ";"
      (List.map (fun l -> String.concat "," (List.map string_of_int l)) lists1)
  in
  Alcotest.check Alcotest.string "golden repaired allocation"
    "0,2,4,5;3,5,6;0,1,3,5;2,3,4,7;1,2,3,4,6;5,6,7;2,5,7;2,6,7;1,3,5,7;0,1,2,7;0,2,4,7;2,5,7"
    rendered

(* ------------------------------------------------------------------ *)
(* Cancel                                                              *)
(* ------------------------------------------------------------------ *)

let test_cancel_frees_box () =
  let fleet, alloc = build_alloc () in
  let params = Params.make ~n:12 ~c:2 ~mu:2.0 ~duration:10 in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  ignore (Engine.step sim);
  checkb "requests active" true (Engine.active_request_count sim > 0);
  Engine.cancel sim 0;
  checki "requests dropped" 0 (Engine.active_request_count sim);
  checkb "idle immediately" true (Engine.is_idle sim 0);
  (* the box can demand again right away *)
  Engine.demand sim ~box:0 ~video:1;
  let r = Engine.step sim in
  checki "new demand flows" 1 r.Engine.active_requests

let test_cancelled_viewer_still_serves_swarm () =
  (* viewer A starts, caches some data, cancels; viewer B arriving
     within the window can still be fed from A's cache *)
  let n = 6 in
  let params = Params.make ~n ~c:2 ~mu:2.0 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n ~u:1.0 ~d:4.0 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:13 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:1 in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let holder = (Allocation.boxes_of_stripe alloc 0).(0) in
  let viewers = List.filter (fun b -> b <> holder) (List.init n Fun.id) in
  let a = List.nth viewers 0 and b = List.nth viewers 1 in
  Engine.demand sim ~box:a ~video:0;
  ignore (Engine.step sim);
  ignore (Engine.step sim);
  ignore (Engine.step sim);
  Engine.cancel sim a;
  Engine.demand sim ~box:b ~video:0;
  let reports = List.init 6 (fun _ -> Engine.step sim) in
  let m = Vod_sim.Metrics.summarise reports in
  checki "follower fully served" 0 m.Vod_sim.Metrics.total_unserved

(* ------------------------------------------------------------------ *)
(* Fleet codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_fleet_roundtrip () =
  let g = Prng.create ~seed:31 () in
  let fleet = Box.Fleet.dsl_mix g ~n:20 ~d:3.5 in
  match Codec.fleet_of_string (Codec.fleet_to_string fleet) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok fleet' ->
      checki "size" 20 (Array.length fleet');
      Array.iteri
        (fun i b ->
          checkb "identical box" true
            (b.Box.id = fleet'.(i).Box.id
            && b.Box.upload = fleet'.(i).Box.upload
            && b.Box.storage = fleet'.(i).Box.storage))
        fleet

let test_fleet_rejects_garbage () =
  checkb "bad header" true (Result.is_error (Codec.fleet_of_string "junk"));
  checkb "bad line" true
    (Result.is_error (Codec.fleet_of_string "vod-fleet v1\n0 x y"));
  checkb "non-dense ids" true
    (Result.is_error (Codec.fleet_of_string "vod-fleet v1\n1 1.0 2.0"))

let test_fleet_file_roundtrip () =
  let fleet = Box.Fleet.homogeneous ~n:5 ~u:1.25 ~d:2.5 in
  let path = Filename.temp_file "vod_fleet" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save_fleet fleet ~path;
      match Codec.load_fleet ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok fleet' -> checki "size" 5 (Array.length fleet'))

(* ------------------------------------------------------------------ *)
(* Theorem 2 certified k                                               *)
(* ------------------------------------------------------------------ *)

let test_t2_certified_k () =
  let t2 = Vod_analysis.Theorem2.derive ~u_star:2.0 ~mu:1.0 ~d:4.0 () in
  match Vod_analysis.Theorem2.certified_k t2 ~n:64 ~m:4 ~target_log:(log 0.01) with
  | None -> Alcotest.fail "expected a certified k"
  | Some k ->
      checkb "positive" true (k > 0);
      checkb "below the closed-form k" true (k <= t2.Vod_analysis.Theorem2.k)

let suites =
  [
    ( "alloc.repair",
      [
        Alcotest.test_case "under-replication detection" `Quick test_under_replicated_detection;
        Alcotest.test_case "repair restores target" `Quick test_repair_restores_target;
        Alcotest.test_case "lost stripe unrepairable" `Quick test_repair_lost_stripe_unrepairable;
        Alcotest.test_case "capacity respected" `Quick test_repair_respects_capacity;
        Alcotest.test_case "input validation" `Quick test_repair_input_validation;
        Alcotest.test_case "determinism pinned" `Quick test_repair_determinism;
      ] );
    ( "sim.cancel",
      [
        Alcotest.test_case "cancel frees box" `Quick test_cancel_frees_box;
        Alcotest.test_case "cancelled viewer still serves" `Quick test_cancelled_viewer_still_serves_swarm;
      ] );
    ( "model.fleet_codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_fleet_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_fleet_rejects_garbage;
        Alcotest.test_case "file roundtrip" `Quick test_fleet_file_roundtrip;
      ] );
    ( "analysis.theorem2_certified",
      [ Alcotest.test_case "certified k" `Quick test_t2_certified_k ] );
  ]

(* ------------------------------------------------------------------ *)
(* Fairness and the load-balancing scheduler                           *)
(* ------------------------------------------------------------------ *)

let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_jain_index () =
  checkf "equal shares" 1.0 (Stats.jain_fairness [| 3.0; 3.0; 3.0 |]);
  checkf "one does all" (1.0 /. 4.0) (Stats.jain_fairness [| 8.0; 0.0; 0.0; 0.0 |]);
  checkf "all zero is fair" 1.0 (Stats.jain_fairness [| 0.0; 0.0 |]);
  checkf "empty is fair" 1.0 (Stats.jain_fairness [||]);
  Alcotest.check_raises "negative" (Invalid_argument "Stats.jain_fairness: negative entry")
    (fun () -> ignore (Stats.jain_fairness [| -1.0 |]))

let test_balance_load_scheduler () =
  let fleet, alloc = build_alloc ~n:16 ~m:16 () in
  let params = Params.make ~n:16 ~c:2 ~mu:2.0 ~duration:10 in
  let run scheduler =
    let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ~scheduler () in
    let g = Prng.create ~seed:41 () in
    let gen = Vod_workload.Generators.zipf_arrivals g ~rate:2.0 ~s:0.9 in
    let reports = Engine.run sim ~rounds:50 ~demands_for:gen in
    let m = Vod_sim.Metrics.summarise reports in
    (m, Stats.jain_fairness (Array.map float_of_int (Engine.cumulative_loads sim)))
  in
  let m_any, jain_any = run Engine.Arbitrary in
  let m_bal, jain_bal = run Engine.Balance_load in
  checki "same service volume" m_any.Vod_sim.Metrics.total_served
    m_bal.Vod_sim.Metrics.total_served;
  checki "balance-load serves everything" 0 m_bal.Vod_sim.Metrics.total_unserved;
  checkb
    (Printf.sprintf "balance-load fairer (%.3f vs %.3f)" jain_bal jain_any)
    true (jain_bal >= jain_any -. 1e-9)

let test_cumulative_loads_consistency () =
  let fleet, alloc = build_alloc ~n:12 ~m:12 () in
  let params = Params.make ~n:12 ~c:2 ~mu:2.0 ~duration:8 in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:43 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:1.5 in
  let reports = Engine.run sim ~rounds:30 ~demands_for:gen in
  let m = Vod_sim.Metrics.summarise reports in
  let total = Array.fold_left ( + ) 0 (Engine.cumulative_loads sim) in
  checki "cumulative loads = total served" m.Vod_sim.Metrics.total_served total

let fairness_suite =
  ( "sim.fairness",
    [
      Alcotest.test_case "jain index" `Quick test_jain_index;
      Alcotest.test_case "balance-load scheduler" `Quick test_balance_load_scheduler;
      Alcotest.test_case "cumulative loads consistent" `Quick test_cumulative_loads_consistency;
    ] )

let suites = suites @ [ fairness_suite ]
