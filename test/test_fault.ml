(* Tests for the fault-injection subsystem: plans, scenario files, the
   engine's fault hooks, the bandwidth-aware repair controller and the
   deterministic chaos runner. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Plan = Vod_fault.Plan
module Scenario = Vod_fault.Scenario
module Mend = Vod_fault.Mend
module Chaos = Vod_fault.Chaos
module Driver = Vod_fault.Driver

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let build_system ~n ~u ~d ~c ~k ~m ~seed () =
  let params = Params.make ~n ~c ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n ~u ~d in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let engine_of ~params ~fleet ~alloc = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ()

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let bad spec msg =
    match Plan.compile ~seed:1 ~n:4 spec with
    | Ok _ -> Alcotest.failf "compiled despite %s" msg
    | Error _ -> ()
  in
  bad [ (0, Plan.Crash 0) ] "round 0";
  bad [ (1, Plan.Crash 4) ] "box out of range";
  bad [ (1, Plan.Degrade (0, 1.5)) ] "factor > 1";
  bad [ (1, Plan.Flaky (-0.1)) ] "negative probability";
  bad [ (1, Plan.Group_crash 0) ] "group event without topology";
  bad [ (1, Plan.Flash_crowd (0, 0)) ] "zero viewers";
  match Plan.compile ~seed:1 ~n:4 [ (3, Plan.Crash 2); (1, Plan.Flaky 0.5) ] with
  | Error m -> Alcotest.fail m
  | Ok p ->
      checki "horizon" 3 (Plan.horizon p);
      checki "last disruption" 3 (Plan.last_disruption p);
      checki "events at 3" 1 (List.length (Plan.events_at p 3));
      checki "events at 2" 0 (List.length (Plan.events_at p 2))

let test_plan_group_expansion () =
  let topology = Topology.uniform_groups ~n:8 ~groups:4 in
  match
    Plan.compile ~topology ~seed:1 ~n:8
      [ (5, Plan.Group_crash 1); (9, Plan.Group_rejoin 1) ]
  with
  | Error m -> Alcotest.fail m
  | Ok p ->
      (* uniform grouping: group 1 = boxes {1, 5}, ascending *)
      checkb "crash expansion" true (Plan.events_at p 5 = [ Plan.Crash 1; Plan.Crash 5 ]);
      checkb "rejoin expansion" true (Plan.events_at p 9 = [ Plan.Rejoin 1; Plan.Rejoin 5 ])

let test_link_fault_determinism () =
  let plan spec_seed = Result.get_ok (Plan.compile ~seed:spec_seed ~n:8 []) in
  let p = plan 7 in
  (* pure in its arguments *)
  for time = 1 to 20 do
    for owner = 0 to 7 do
      checkb "same args, same verdict" true
        (Plan.link_fault p ~prob:0.3 ~time ~owner ~server:3
        = Plan.link_fault p ~prob:0.3 ~time ~owner ~server:3)
    done
  done;
  (* degenerate probabilities *)
  checkb "prob 0 never fires" false (Plan.link_fault p ~prob:0.0 ~time:5 ~owner:2 ~server:3);
  checkb "prob 1 always fires" true (Plan.link_fault p ~prob:1.0 ~time:5 ~owner:2 ~server:3);
  (* frequency tracks the probability, and different seeds give
     different (but internally deterministic) draws *)
  let count p prob =
    let hits = ref 0 in
    for time = 1 to 50 do
      for owner = 0 to 7 do
        for server = 0 to 7 do
          if Plan.link_fault p ~prob ~time ~owner ~server then incr hits
        done
      done
    done;
    !hits
  in
  let total = 50 * 8 * 8 in
  let hits = count p 0.2 in
  checkb "frequency near prob" true
    (abs (hits - (total / 5)) < total / 10);
  checkb "seed matters" true (count (plan 8) 0.2 <> hits)

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let scenario_text =
  {|# comment line
n 16
u 1.5
d 4
c 2
k 3
m 10
rounds 50
seed 9
rate 0.5
groups 4
target_k 2
budget 3
transfer_rounds 2
backoff 1 8
at 5 crash 1 3   # trailing comment
at 10 flaky 0.1
at 12 degrade 2 0.5
at 20 group-rejoin 0
at 30 flash 0 4
|}

let test_scenario_parse () =
  match Scenario.parse ~name:"inline" scenario_text with
  | Error m -> Alcotest.fail m
  | Ok s ->
      checki "n" 16 s.Scenario.n;
      checkb "u" true (s.Scenario.u = 1.5);
      checki "m" 10 (Option.get s.Scenario.m);
      checki "groups" 4 (Option.get s.Scenario.groups);
      checki "target_k" 2 s.Scenario.target_k;
      checki "budget" 3 s.Scenario.budget;
      checki "backoff cap" 8 s.Scenario.backoff_cap;
      checki "events" 6 (List.length s.Scenario.events);
      checkb "multi-box crash" true
        (List.mem (5, Plan.Crash 1) s.Scenario.events
        && List.mem (5, Plan.Crash 3) s.Scenario.events)

let test_scenario_errors () =
  (* line numbers in errors *)
  (match Scenario.parse ~name:"bad" "n 4\nbogus 3\n" with
  | Ok _ -> Alcotest.fail "parsed unknown directive"
  | Error m -> checkb (Printf.sprintf "line number in %s" m) true (String.length m > 0 && m.[4] = '2'));
  (match Scenario.parse ~name:"bad" "at 5 crash\n" with
  | Ok _ -> Alcotest.fail "parsed event with no box"
  | Error _ -> ());
  (match Scenario.parse ~name:"bad" "target_k 0\n" with
  | Ok _ -> Alcotest.fail "parsed target_k 0"
  | Error _ -> ());
  match Scenario.parse ~name:"bad" "backoff 8 2\n" with
  | Ok _ -> Alcotest.fail "parsed inverted backoff"
  | Error _ -> ()

(* A NaN slips past every [x < bound] check, and a fleet too large for
   an array used to escape as Invalid_argument from the system build:
   both are parse errors now. *)
let test_scenario_rejects_non_finite () =
  List.iter
    (fun directive ->
      match Scenario.parse ~name:"bad" ("n 16\nrounds 5\n" ^ directive ^ "\n") with
      | Ok _ -> Alcotest.failf "parsed '%s'" directive
      | Error _ -> ())
    [
      "rate nan";
      "mu nan";
      "u inf";
      "d nan";
      "helpers 8 nan 1.0";
      "kpi max-rejection nan";
      "population rich-poor nan 3.0 0.75 1.25";
      "n 4611686018427387903";
      Printf.sprintf "n %d\nhelpers %d 1.0 1.0" (Sys.max_array_length - 4) 8;
    ];
  checkb "finite values still parse" true
    (Result.is_ok (Scenario.parse ~name:"ok" "n 16\nrounds 5\nrate 0.5\nmu 1.5\n"))

let test_scenario_roundtrip () =
  let s = Result.get_ok (Scenario.parse ~name:"inline" scenario_text) in
  let s' = Result.get_ok (Scenario.parse ~name:"inline" (Scenario.to_text s)) in
  checks "to_text round-trips" (Scenario.to_text s) (Scenario.to_text s')

(* ------------------------------------------------------------------ *)
(* Engine fault hooks                                                  *)
(* ------------------------------------------------------------------ *)

(* Satellite regression: a pending demand on a box that crashes before
   the next step must be dropped silently, and generators feeding
   demands for offline boxes through [Engine.run] must be skipped. *)
let test_offline_demand_skipped () =
  let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.demand e ~box:1 ~video:0;
  Engine.set_online e 1 false;
  let r = Engine.step e in
  checki "crashed pending demand dropped" 0 r.Engine.new_demands;
  checki "no requests" 0 r.Engine.active_requests;
  (* stateless generator keeps naming the offline box: skipped, no raise *)
  let reports = Engine.run e ~rounds:3 ~demands_for:(fun _ _ -> [ (1, 0); (2, 1) ]) in
  checki "online box admitted" 1 (List.hd reports).Engine.new_demands;
  Engine.set_online e 1 true;
  Engine.demand e ~box:1 ~video:0;
  let r = Engine.step e in
  checki "rejoined box admits demands" 1 r.Engine.new_demands

let test_upload_degradation () =
  let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
  let e = engine_of ~params ~fleet ~alloc in
  checki "nominal slots" 4 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:0.5;
  checkb "factor readable" true (Engine.upload_factor e 0 = 0.5);
  checki "degraded slots" 2 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:0.0;
  checki "fully degraded" 0 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:1.0;
  checki "restored slots" 4 (Engine.upload_slots_of_box e 0);
  Alcotest.check_raises "factor out of range"
    (Invalid_argument "Engine.set_upload_factor: factor outside [0, 1]") (fun () ->
      Engine.set_upload_factor e ~box:0 ~factor:1.5)

let test_link_faults_stall_requests () =
  let run_with faults =
    let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
    let e = engine_of ~params ~fleet ~alloc in
    (match faults with
    | None -> ()
    | Some f -> Engine.set_link_faults e (Some f));
    Engine.demand e ~box:0 ~video:1;
    Engine.demand e ~box:3 ~video:2;
    (Engine.step e, Engine.step e)
  in
  let _, clean = run_with None in
  let _, all_faulty = run_with (Some (fun ~time:_ ~owner:_ ~server:_ -> true)) in
  let _, none_faulty = run_with (Some (fun ~time:_ ~owner:_ ~server:_ -> false)) in
  checkb "clean round serves" true (clean.Engine.served > 0);
  checki "always-faulty serves nothing" 0 all_faulty.Engine.served;
  checki "faulted = active" all_faulty.Engine.active_requests all_faulty.Engine.faulted;
  checki "faulted counted as unserved" all_faulty.Engine.active_requests
    all_faulty.Engine.unserved;
  checks "never-faulty is bit-identical to no predicate"
    (Format.asprintf "%a" Engine.pp_report clean)
    (Format.asprintf "%a" Engine.pp_report none_faulty)

(* A hand-built allocation where box 0 is the only holder of both
   stripes, so concurrent repairs compete for its upload slots. *)
let sole_holder_system ~u =
  let n = 4 and c = 1 in
  let params = Params.make ~n ~c ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let catalog = Catalog.create ~m:2 ~c in
  let alloc = Allocation.of_replica_lists ~catalog ~n_boxes:n [| [| 0 |]; [| 0 |] |] in
  (params, fleet, alloc)

(* Acceptance criterion: repair transfers consume real matching slots —
   a saturated donor serves strictly fewer repairs per round. *)
let test_repair_slot_contention () =
  let serve_round u =
    let params, fleet, alloc = sole_holder_system ~u in
    let e = engine_of ~params ~fleet ~alloc in
    Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:3;
    Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:3;
    Engine.step e
  in
  let saturated = serve_round 1.0 in
  let roomy = serve_round 2.0 in
  checki "both transfers active (saturated)" 2 saturated.Engine.repair_active;
  checki "one upload slot, one repair served" 1 saturated.Engine.repair_served;
  checki "two upload slots serve both" 2 roomy.Engine.repair_served;
  checkb "saturated round serves strictly fewer repairs" true
    (saturated.Engine.repair_served < roomy.Engine.repair_served)

let test_repair_lifecycle () =
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:2;
  Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:2;
  checki "scheduled transfers counted" 2 (Engine.repair_in_flight e);
  ignore (Engine.step e);
  checki "nothing completed after one round" 0
    (List.length (Engine.drain_completed_repairs e));
  ignore (Engine.step e);
  checkb "both completed after two rounds" true
    (List.sort compare (Engine.drain_completed_repairs e) = [ (0, 1); (1, 2) ]);
  checki "drain clears the buffer" 0 (List.length (Engine.drain_completed_repairs e));
  ignore (Engine.step e);
  checki "completed transfers retire" 0 (Engine.repair_in_flight e);
  (* install the replica and verify the new holder can serve *)
  let epoch = Engine.box_epoch e in
  Engine.install e [ (0, 1); (1, 2) ];
  checkb "installed replica visible" true
    (Allocation.possesses (Engine.alloc e) ~box:1 ~stripe:0);
  checkb "installed in place" true (Engine.alloc e == alloc);
  checki "one epoch move per install" (epoch + 1) (Engine.box_epoch e)

let test_repair_dies_with_dest () =
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:3;
  ignore (Engine.step e);
  Engine.set_online e 1 false;
  checki "transfer died with its destination" 0 (Engine.repair_in_flight e);
  ignore (Engine.step e);
  checki "nothing to drain" 0 (List.length (Engine.drain_completed_repairs e));
  (* abort withdraws a live transfer *)
  Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:3;
  checkb "abort finds the transfer" true (Engine.abort_repair e ~stripe:1 ~dest:2);
  checkb "second abort finds nothing" false (Engine.abort_repair e ~stripe:1 ~dest:2);
  checki "aborted transfer gone" 0 (Engine.repair_in_flight e)

(* Taking a box offline only raises a flag: its requests leave in one
   pass at the next reader of the request set.  Reading the set after
   every crash ([active_request_count] flushes) replays the box-by-box
   drop, so both runs must agree on every round.  The first group has a
   box that rejoins in its crash round (the flush at the rejoin), the
   second is flushed by the step.  No stripe loses every replica, so
   every round serves all its requests. *)
let test_batched_crash_drop () =
  let n = 24 in
  let run ~eager =
    let params, fleet, alloc = build_system ~n ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:12 ~seed:9 () in
    let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
    let g = Prng.create ~seed:4 () in
    let view () =
      Option.map
        (fun b -> (Vod_check.Instance.of_bipartite b).adj)
        (Engine.last_instance e)
    in
    List.init 30 (fun i ->
        let round = i + 1 in
        for _ = 1 to 3 do
          let box = Prng.int g n and video = Prng.int g 12 in
          ignore (Engine.try_demand e ~box ~video : Engine.admit)
        done;
        let stripe = Prng.int g 24 and dest = Prng.int g n in
        if
          round mod 3 = 1 && Engine.is_online e dest
          && not (Allocation.possesses (Engine.alloc e) ~box:dest ~stripe)
        then Engine.inject_repair e ~stripe ~dest ~rounds:4;
        if round = 8 || round = 17 then begin
          let first = if round = 8 then 0 else 12 in
          for b = first to first + 5 do
            Engine.set_online e b false;
            if eager then ignore (Engine.active_request_count e : int)
          done;
          if round = 8 then Engine.set_online e (first + 3) true
        end;
        if round = 13 then
          for b = 0 to 5 do
            Engine.set_online e b true
          done;
        let r = Engine.step e in
        (r, Engine.repair_in_flight e, view ()))
  in
  let batched = run ~eager:false and eager = run ~eager:true in
  List.iteri
    (fun i ((r, inflight, inst), (r', inflight', inst')) ->
      let round = Printf.sprintf "round %d" (i + 1) in
      checkb (round ^ ": report") true (r = r');
      checki (round ^ ": repair in flight") inflight' inflight;
      checkb (round ^ ": instance") true (inst = inst'))
    (List.combine batched eager);
  checkb "the crashes took boxes offline" true
    (List.exists
       (fun ((r : Engine.round_report), _, _) -> r.Engine.offline_boxes > 0)
       batched);
  List.iteri
    (fun i ((r : Engine.round_report), _, _) ->
      checki (Printf.sprintf "round %d: all served" (i + 1)) 0 r.Engine.unserved)
    batched

(* ------------------------------------------------------------------ *)
(* Mend                                                                *)
(* ------------------------------------------------------------------ *)

let drive_until_quiesced ?(max_rounds = 300) mend e =
  let rounds = ref 0 in
  while (not (Mend.quiesced mend e)) && !rounds < max_rounds do
    incr rounds;
    Mend.tick mend e;
    ignore (Engine.step e);
    ignore (Mend.collect mend e)
  done;
  !rounds

let alive_count alloc alive s =
  Array.fold_left
    (fun acc b -> if alive.(b) then acc + 1 else acc)
    0
    (Alloc_rows.boxes_of_stripe alloc s)

let test_mend_heals_crash () =
  let params, fleet, alloc = build_system ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:16 ~seed:5 () in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.set_online e 2 false;
  Engine.set_online e 9 false;
  let cfg = Mend.config ~target_k:3 ~budget:4 ~transfer_rounds:2 () in
  let mend = Mend.create ~seed:11 cfg in
  let budget_ok = ref true in
  let rounds = ref 0 in
  while (not (Mend.quiesced mend e)) && !rounds < 300 do
    incr rounds;
    Mend.tick mend e;
    if Engine.repair_in_flight e > 4 then budget_ok := false;
    ignore (Engine.step e);
    ignore (Mend.collect mend e)
  done;
  checkb "quiesced" true (Mend.quiesced mend e);
  checkb "budget respected every round" true !budget_ok;
  let final = Engine.alloc e in
  let alive = Array.init 16 (Engine.is_online e) in
  let total = Catalog.total_stripes (Allocation.catalog alloc) in
  for s = 0 to total - 1 do
    checkb
      (Printf.sprintf "stripe %d back at target" s)
      true
      (alive_count final alive s >= 3)
  done;
  let st = Mend.stats mend in
  checkb "transfers ran" true (st.Mend.started > 0);
  checki "all started transfers completed" st.Mend.started st.Mend.completed;
  checki "every completion installed" st.Mend.completed st.Mend.installed

let test_mend_unrepairable_classification () =
  (* both stripes live only on box 0: crash it and nothing can repair *)
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.set_online e 0 false;
  let mend = Mend.create (Mend.config ~target_k:1 ~transfer_rounds:2 ()) in
  let rounds = drive_until_quiesced mend e in
  checkb "quiesced quickly" true (rounds < 10);
  let repairable, unrepairable = Mend.pending mend e in
  checki "nothing repairable" 0 (List.length repairable);
  checkb "dead stripes classified unrepairable" true (unrepairable = [ 0; 1 ]);
  checki "no transfers were started" 0 (Mend.stats mend).Mend.started;
  (* the holder rejoins: stripes are whole again, nothing under *)
  Engine.set_online e 0 true;
  let repairable, unrepairable = Mend.pending mend e in
  checki "healed by rejoin (repairable)" 0 (List.length repairable);
  checki "healed by rejoin (unrepairable)" 0 (List.length unrepairable)

(* [collect] installs each completed replica once: a second completion
   of the same (stripe, dest) in one drain, or a replica the allocation
   already holds, counts as completed but is not installed again. *)
let test_mend_collect_skips_held () =
  let params, fleet, alloc = sole_holder_system ~u:3.0 in
  let e = engine_of ~params ~fleet ~alloc in
  let mend = Mend.create (Mend.config ~target_k:1 ~transfer_rounds:2 ()) in
  let transfer stripe dest = Engine.inject_repair e ~stripe ~dest ~rounds:2 in
  let two_rounds () =
    ignore (Engine.step e : Engine.round_report);
    ignore (Engine.step e : Engine.round_report)
  in
  transfer 0 1;
  transfer 0 1;
  transfer 1 2;
  two_rounds ();
  checki "one install per replica" 2 (Mend.collect mend e);
  checkb "stripe 0 gained box 1 once" true
    (Alloc_rows.boxes_of_stripe (Engine.alloc e) 0 = [| 0; 1 |]);
  transfer 1 3;
  Engine.install e [ (1, 3) ];
  two_rounds ();
  checki "a held replica is not installed again" 0 (Mend.collect mend e);
  let st = Mend.stats mend in
  checki "every transfer completed" 4 st.Mend.completed;
  checki "two replicas installed" 2 st.Mend.installed

(* Mend caches its under-replicated list on [Engine.box_epoch].  The
   reference recomputes [Mend.pending] from scratch: one
   [Repair.under_replicated] over a fresh alive array, split by the
   repairable predicate (a live donor and a live non-holder with a free
   storage slot). *)
let reference_pending ~target_k e =
  let params = Engine.params e in
  let n = params.Params.n and c = params.Params.c in
  let alloc = Engine.alloc e and fleet = Engine.fleet e in
  let alive = Array.init n (Engine.is_online e) in
  let under = Vod_alloc.Repair.under_replicated ~alloc ~alive ~target_k in
  let destination s b =
    alive.(b)
    && Box.storage_slots ~c fleet.(b) > Allocation.box_load alloc b
    && not (Allocation.possesses alloc ~box:b ~stripe:s)
  in
  List.partition
    (fun s ->
      Array.exists (fun b -> alive.(b)) (Alloc_rows.boxes_of_stripe alloc s)
      && List.exists (destination s) (List.init n Fun.id))
    under

type mend_op =
  | Flip of int
  | Factor of int * float
  | Helper of int * bool
  | Install of int * int (* stripe, box: skipped when the box holds it *)
  | Round of int * int (* a demand, then tick / step / collect *)

let mend_op_name = function
  | Flip b -> Printf.sprintf "flip %d" b
  | Factor (b, f) -> Printf.sprintf "factor %d %.1f" b f
  | Helper (b, h) -> Printf.sprintf "helper %d %b" b h
  | Install (s, b) -> Printf.sprintf "install %d on %d" s b
  | Round (b, v) -> Printf.sprintf "round (demand %d %d)" b v

(* After every operation: [Mend.pending] equals the reference, and the
   epoch contract holds — while [box_epoch] stands still, so does every
   per-box input of a cached view (online flags, upload factors, helper
   marks, the allocation).  Dropping the epoch bump from any one of the
   four mutators fails one of the two checks. *)
let mend_epoch_qcheck =
  let open QCheck in
  let n = 12 and m = 10 and target_k = 3 in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun b -> Flip b) (int_bound (n - 1)));
          ( 2,
            map2
              (fun b f -> Factor (b, f))
              (int_bound (n - 1))
              (oneofl [ 0.0; 0.5; 1.0 ]) );
          (1, map2 (fun b h -> Helper (b, h)) (int_bound (n - 1)) bool);
          ( 1,
            map2 (fun s b -> Install (s, b)) (int_bound ((m * 2) - 1)) (int_bound (n - 1)) );
          (4, map2 (fun b v -> Round (b, v)) (int_bound (n - 1)) (int_bound (m - 1)));
        ])
  in
  Test.make ~name:"mend: pending tracks the engine's box epoch" ~count:100
    (make
       ~print:
         Print.(pair int (fun ops -> String.concat "; " (List.map mend_op_name ops)))
       Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 60) op)))
    (fun (seed, ops) ->
      let params, fleet, alloc = build_system ~n ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m ~seed () in
      let e = engine_of ~params ~fleet ~alloc in
      let mend =
        Mend.create ~seed:(seed + 2)
          (Mend.config ~target_k ~budget:4 ~transfer_rounds:2 ())
      in
      let state () =
        ( Array.init n (Engine.is_online e),
          Array.init n (Engine.upload_factor e),
          Array.init n (Engine.is_helper e),
          Array.init n (Allocation.box_load alloc) )
      in
      let snapshot = ref (Engine.box_epoch e, state ()) in
      let check label =
        let epoch, st = !snapshot in
        if Engine.box_epoch e = epoch then begin
          if st <> state () then
            Test.fail_reportf "%s: box state changed under epoch %d" label epoch
        end
        else snapshot := (Engine.box_epoch e, state ());
        if Mend.pending mend e <> reference_pending ~target_k e then
          Test.fail_reportf "%s: pending differs from the recomputed reference" label
      in
      check "start";
      List.iter
        (fun op ->
          (match op with
          | Flip b -> Engine.set_online e b (not (Engine.is_online e b))
          | Factor (box, factor) -> Engine.set_upload_factor e ~box ~factor
          | Helper (b, h) -> Engine.set_helper e b h
          | Install (stripe, box) ->
              if not (Allocation.possesses alloc ~box ~stripe) then
                Engine.install e [ (stripe, box) ]
          | Round (box, video) ->
              ignore (Engine.try_demand e ~box ~video : Engine.admit);
              Mend.tick mend e;
              ignore (Engine.step e : Engine.round_report);
              ignore (Mend.collect mend e : int));
          check (mend_op_name op))
        ops;
      true)

(* Words [Mend.tick] + [Mend.pending] allocate per fault-free round of a
   warmed n=4096 engine, on both heaps, net of the measurement's own
   allocation, read by {!Vod_obs.Words}: [Gc.quick_stat]'s minor count
   only moves at a minor collection, too rarely for windows this short,
   and its major count misses arrays made straight on the major heap.

   It was 21_336 words per round when both calls rebuilt an n-word
   alive array and rescanned the catalogue every round, and [tick] an
   n-word free array.  It is 85 with the under-replicated list cached on
   the box epoch and the arrays built only when a transfer is about to
   be scheduled.  The bound is their geometric mean (1347): one n-word
   array per round exceeds it. *)
let test_mend_alloc_guard () =
  let sys =
    Vod.System.homogeneous ~seed:5 ~m:512 ~n:4096 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
      ~duration:15 ()
  in
  let e =
    Engine.create ~params:sys.Vod.System.params ~fleet:sys.Vod.System.fleet
      ~alloc:sys.Vod.System.alloc ~policy:Engine.Continue ()
  in
  let mend = Mend.create (Mend.config ~target_k:3 ()) in
  let arrivals =
    Vod_workload.Generators.uniform_arrivals (Prng.create ~seed:7 ()) ~rate:30.0
  in
  let spent = ref 0.0 in
  let round () =
    List.iter
      (fun (box, video) -> ignore (Engine.try_demand e ~box ~video : Engine.admit))
      (arrivals e (Engine.now e + 1));
    let (), ticked = Vod_obs.Words.spent (fun () -> Mend.tick mend e) in
    ignore (Engine.step e : Engine.round_report);
    ignore (Mend.collect mend e : int);
    let _, pended = Vod_obs.Words.spent (fun () -> Mend.pending mend e) in
    spent := !spent +. ticked +. pended
  in
  for _ = 1 to 10 do
    round ()
  done;
  spent := 0.0;
  for _ = 1 to 20 do
    round ()
  done;
  let per_round = !spent /. 20.0 in
  if per_round > 1347.0 then
    Alcotest.failf "%.1f words per fault-free Mend round (bound 1347)" per_round

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let quiet_scenario_text =
  {|n 32
u 2.0
d 4
c 2
k 3
m 20
mu 1.2
duration 10
rounds 40
seed 11
rate 1.5
target_k 2
|}

let crashy_scenario_text =
  quiet_scenario_text
  ^ {|transfer_rounds 2
at 5 crash 3 7
at 8 flaky 0.02
at 12 flaky 0
at 25 rejoin 3
|}

(* Satellite lockstep test: a chaos run whose fault plan is empty is
   bit-identical to a plain engine run fed the same workload. *)
let test_chaos_empty_plan_lockstep () =
  let s = Result.get_ok (Scenario.parse ~name:"quiet" quiet_scenario_text) in
  let outcome = Result.get_ok (Chaos.run s) in
  checki "no transfers in a fault-free run" 0 outcome.Chaos.stats.Mend.started;
  (* plain run: same construction, no fault layer at all *)
  let params = Params.make ~n:32 ~c:2 ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n:32 ~u:2.0 ~d:4.0 in
  let catalog = Catalog.create ~m:20 ~c:2 in
  let g = Prng.create ~seed:11 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:3 in
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let wg = Prng.create ~seed:(11 + 7) () in
  let gen = Vod_workload.Generators.uniform_arrivals wg ~rate:1.5 in
  let plain = Engine.run e ~rounds:40 ~demands_for:gen in
  checki "same round count" (List.length plain) (List.length outcome.Chaos.reports);
  List.iter2
    (fun p c ->
      checks
        (Printf.sprintf "round %d bit-identical" p.Engine.time)
        (Format.asprintf "%a" Engine.pp_report p)
        (Format.asprintf "%a" Engine.pp_report c))
    plain outcome.Chaos.reports

let test_chaos_deterministic_jsonl () =
  let s = Result.get_ok (Scenario.parse ~name:"crashy" crashy_scenario_text) in
  let o1 = Result.get_ok (Chaos.run s) in
  let o2 = Result.get_ok (Chaos.run s) in
  checks "same run, same bytes" o1.Chaos.jsonl o2.Chaos.jsonl;
  (* the replications vodctl chaos runs: the driver's fan-out of Chaos.run *)
  let replicate ~jobs ~replications =
    Result.get_ok
      (Driver.replicate ~jobs ~replications
         ~run:(fun ~rep:_ ~seed -> Chaos.run ~seed s)
         s)
  in
  let many jobs =
    replicate ~jobs ~replications:3
    |> List.map (fun o -> o.Chaos.jsonl)
    |> String.concat ""
  in
  checks "same run, same slo bytes" o1.Chaos.slo_jsonl o2.Chaos.slo_jsonl;
  checks "jobs=1 and jobs=2 byte-identical" (many 1) (many 2);
  let many_slo jobs =
    replicate ~jobs ~replications:3
    |> List.map (fun o -> o.Chaos.slo_jsonl)
    |> String.concat ""
  in
  checks "slo stream jobs-invariant" (many_slo 1) (many_slo 2);
  (* replications genuinely differ (independent seeds) *)
  match replicate ~jobs:2 ~replications:2 with
  | [ a; b ] ->
      checkb "replications independent" true (a.Chaos.jsonl <> b.Chaos.jsonl);
      checki "rep seeds spaced" (s.Scenario.seed + 1000) b.Chaos.seed
  | _ -> Alcotest.fail "expected 2 outcomes"

let test_chaos_recovers () =
  let s = Result.get_ok (Scenario.parse ~name:"crashy" crashy_scenario_text) in
  let o = Result.get_ok (Chaos.run s) in
  checkb "verdict ok" true (Chaos.verdict_ok o);
  checkb "recovered" true o.Chaos.recovered;
  checki "nothing unrepairable" 0 o.Chaos.unrepairable;
  checkb "repair transfers ran" true (o.Chaos.stats.Mend.started > 0);
  checkb "link faults fired" true (o.Chaos.total_faulted > 0);
  checki "two boxes down at the trough" 30 o.Chaos.min_online;
  checkb "full replication reached" true (o.Chaos.time_to_full_replication >= 0)

(* KPI budgets compile into burn-rate SLOs; the verdict stream and the
   per-round tick are deterministic functions of the scenario. *)
let test_chaos_slo_compilation () =
  let module Slo = Vod_obs.Slo in
  let text =
    crashy_scenario_text
    ^ {|kpi max-rejection 0.05
kpi max-startup-p95 3
kpi max-sourcing-share 0.98
kpi max-time-to-repair 20
|}
  in
  let s = Result.get_ok (Scenario.parse ~name:"budgeted" text) in
  let ticks = ref 0 and evaluators = ref 0 in
  let o =
    Result.get_ok
      (Chaos.run
         ~on_round:(fun tick ->
           incr ticks;
           evaluators := List.length tick.Chaos.t_slos)
         s)
  in
  checki "tick per round" s.Scenario.rounds !ticks;
  checki "three budgets compile to slos" 3 !evaluators;
  (* time-to-repair stays a terminal KPI, never an SLO *)
  checkb "summary order rejection, startup, sourcing" true
    (List.map (fun su -> su.Slo.su_name) o.Chaos.slo
    = [ "rejection"; "startup"; "sourcing" ]);
  (match o.Chaos.slo with
  | rej :: _ -> checks "stream ends ok" "ok" (Slo.state_name rej.Slo.su_final)
  | [] -> Alcotest.fail "expected slo summaries");
  (* the stream carries a meta line naming the schema *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match String.split_on_char '\n' o.Chaos.slo_jsonl with
  | meta :: _ ->
      checkb "meta line" true
        (String.length meta > 15
        && String.sub meta 0 15 = {|{"type":"meta",|}
        && contains meta {|"version":"vod-slo/1"|})
  | [] -> Alcotest.fail "empty slo stream");
  (* a budget-free scenario produces no evaluators but still a stream *)
  let quiet = Result.get_ok (Scenario.parse ~name:"quiet" quiet_scenario_text) in
  let oq = Result.get_ok (Chaos.run quiet) in
  checkb "no budgets, no summaries" true (oq.Chaos.slo = [])

let test_chaos_rejects_bad_scenarios () =
  let s = Result.get_ok (Scenario.parse ~name:"bad" (quiet_scenario_text ^ "at 5 crash 99\n")) in
  (match Chaos.run s with
  | Ok _ -> Alcotest.fail "ran with an out-of-range crash"
  | Error _ -> ());
  let s = Result.get_ok (Scenario.parse ~name:"bad" (quiet_scenario_text ^ "at 5 flash 20 4\n")) in
  match Chaos.run s with
  | Ok _ -> Alcotest.fail "ran with a flash video outside the catalog"
  | Error _ -> ()

(* Byte-pins of both chaos streams, vod-chaos/1 and vod-slo/1:
   - crash_rejoin: every event kind (crash, group crash, degrade and
     restore, flaky links, direct flash demands, rejoins);
   - flash_during_outage: a flash crowd over a group outage, with stalls;
   - helpers_churn: helper fleets joining and leaving;
   - rich_poor_balanced under round-robin: the Round_robin scheme and
     Theorem 2 relay compensation.
   Regenerate with
     dune exec bin/vodctl.exe -- chaos SCN \
       --out test/chaos_NAME_golden.jsonl --slo-out test/chaos_NAME_slo_golden.jsonl
   for the scratch config, and from [Chaos.run ~config] for the others. *)
let chaos_pins =
  [
    ("crash_rejoin", "../examples/crash_rejoin.scn", "scratch");
    ("flash_during_outage", "../examples/battery/flash_during_outage.scn", "scratch");
    ("helpers_churn", "../examples/battery/helpers_churn.scn", "scratch");
    ( "rich_poor_balanced_round_robin",
      "../examples/battery/rich_poor_balanced.scn",
      "round-robin" );
  ]

let test_chaos_pin (name, path, config) () =
  let s = Result.get_ok (Scenario.load ~path) in
  let config = Result.get_ok (Chaos.config_of_name config) in
  let o = Result.get_ok (Chaos.run ~config s) in
  let golden kind =
    In_channel.with_open_bin ("chaos_" ^ name ^ kind) In_channel.input_all
  in
  checks "vod-chaos/1 matches the golden pin" (golden "_golden.jsonl") o.Chaos.jsonl;
  checks "vod-slo/1 matches the golden pin" (golden "_slo_golden.jsonl") o.Chaos.slo_jsonl

(* Byte-pin of a startup SLO that burns: flash_during_outage with its
   startup budget cut from 3 rounds to 1, so the flash crowd's slow
   starts burn the startup SLO (max fast burn 0.9677) without
   saturating it (target 0.05 saturates at 20).  Every other pin reads
   a startup burn of 0, where a cursor that counts a startup twice
   leaves the stream unchanged.  The scenario is built here, not under
   examples/battery/, so the battery scorecard does not move.
   Regenerate with
     sed 's/kpi max-startup-p95 3/kpi max-startup-p95 1/' \
       examples/battery/flash_during_outage.scn > flash_startup1.scn
     dune exec bin/vodctl.exe -- chaos flash_startup1.scn \
       --out /dev/null --slo-out test/chaos_flash_startup1_slo_golden.jsonl *)
let test_chaos_startup_burn_pin () =
  let text =
    In_channel.with_open_bin "../examples/battery/flash_during_outage.scn"
      In_channel.input_all
  in
  let text =
    String.split_on_char '\n' text
    |> List.map (function
         | "kpi max-startup-p95 3" -> "kpi max-startup-p95 1"
         | line -> line)
    |> String.concat "\n"
  in
  let s = Result.get_ok (Scenario.parse ~name:"flash_startup1.scn" text) in
  let o = Result.get_ok (Chaos.run s) in
  checks "vod-slo/1 matches the golden pin"
    (In_channel.with_open_bin "chaos_flash_startup1_slo_golden.jsonl" In_channel.input_all)
    o.Chaos.slo_jsonl;
  match List.find_opt (fun su -> su.Vod_obs.Slo.su_name = "startup") o.Chaos.slo with
  | None -> Alcotest.fail "no startup SLO"
  | Some su ->
      let burn = su.Vod_obs.Slo.su_max_fast_burn in
      checkb (Printf.sprintf "startup burn %.4f neither 0 nor saturated" burn) true
        (burn > 0.0 && burn < 20.0)

(* ------------------------------------------------------------------ *)
(* Chaos-mode repair oracle                                            *)
(* ------------------------------------------------------------------ *)

let test_chaos_repair_agreement () =
  let params, fleet, alloc = build_system ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:16 ~seed:5 () in
  match
    Vod_check.Oracle.chaos_repair_agreement ~params ~fleet ~alloc ~crashed:[ 2; 9 ]
      ~target_k:3 ~seed:5 ()
  with
  | Error m -> Alcotest.fail m
  | Ok o ->
      checkb "engine repaired something" true (o.Vod_check.Oracle.engine_installed > 0);
      checki "nothing unrepairable" 0 o.Vod_check.Oracle.oracle_unrepairable;
      checkb "quiesced in bounded time" true (o.Vod_check.Oracle.rounds_to_quiesce < 500)

(* ------------------------------------------------------------------ *)
(* qcheck: convergence under arbitrary crash/rejoin plans              *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"mend: quiesces and restores every repairable stripe" ~count:15
      (triple (int_range 0 1_000_000) (int_range 0 5) (int_range 1 3))
      (fun (seed, n_crashed, target_k) ->
        let n = 12 in
        let params, fleet, alloc =
          build_system ~n ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:10 ~seed ()
        in
        let e = engine_of ~params ~fleet ~alloc in
        let g = Prng.create ~seed:(seed + 1) () in
        let crashed = Sample.choose_distinct g ~n ~k:n_crashed in
        Array.iter (fun b -> Engine.set_online e b false) crashed;
        (* a random prefix of the crashed boxes rejoins mid-run *)
        let rejoin_count = if n_crashed = 0 then 0 else Prng.int g (n_crashed + 1) in
        let mend =
          Mend.create ~seed:(seed + 2)
            (Mend.config ~target_k ~budget:8 ~transfer_rounds:2 ())
        in
        let rounds = ref 0 in
        while (not (Mend.quiesced mend e)) && !rounds < 400 do
          incr rounds;
          if !rounds = 10 then
            Array.iter
              (fun b -> Engine.set_online e b true)
              (Array.sub crashed 0 rejoin_count);
          Mend.tick mend e;
          ignore (Engine.step e);
          ignore (Mend.collect mend e)
        done;
        if not (Mend.quiesced mend e) then
          Test.fail_report "controller did not quiesce within 400 rounds";
        let _, unrepairable = Mend.pending mend e in
        let final = Engine.alloc e in
        let alive = Array.init n (Engine.is_online e) in
        let total = Catalog.total_stripes (Allocation.catalog alloc) in
        let ok = ref true in
        for s = 0 to total - 1 do
          let reached = alive_count final alive s >= target_k in
          let counted = List.mem s unrepairable in
          if not (reached || counted) then ok := false
        done;
        !ok);
  ]

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "validation" `Quick test_plan_validation;
        Alcotest.test_case "group expansion" `Quick test_plan_group_expansion;
        Alcotest.test_case "link-fault determinism" `Quick test_link_fault_determinism;
      ] );
    ( "fault.scenario",
      [
        Alcotest.test_case "parse" `Quick test_scenario_parse;
        Alcotest.test_case "errors" `Quick test_scenario_errors;
        Alcotest.test_case "non-finite and oversized" `Quick
          test_scenario_rejects_non_finite;
        Alcotest.test_case "round-trip" `Quick test_scenario_roundtrip;
      ] );
    ( "fault.engine",
      [
        Alcotest.test_case "offline demands skipped" `Quick test_offline_demand_skipped;
        Alcotest.test_case "upload degradation" `Quick test_upload_degradation;
        Alcotest.test_case "link faults stall requests" `Quick
          test_link_faults_stall_requests;
        Alcotest.test_case "repair slot contention" `Quick test_repair_slot_contention;
        Alcotest.test_case "repair lifecycle" `Quick test_repair_lifecycle;
        Alcotest.test_case "repair dies with dest" `Quick test_repair_dies_with_dest;
        Alcotest.test_case "group crash drops in one pass" `Quick test_batched_crash_drop;
      ] );
    ( "fault.mend",
      [
        Alcotest.test_case "heals a crash" `Quick test_mend_heals_crash;
        Alcotest.test_case "unrepairable classification" `Quick
          test_mend_unrepairable_classification;
        Alcotest.test_case "collect skips held replicas" `Quick
          test_mend_collect_skips_held;
        QCheck_alcotest.to_alcotest mend_epoch_qcheck;
        Alcotest.test_case "allocation guard" `Quick test_mend_alloc_guard;
      ] );
    ( "fault.chaos",
      [
        Alcotest.test_case "empty plan lockstep" `Quick test_chaos_empty_plan_lockstep;
        Alcotest.test_case "deterministic jsonl" `Quick test_chaos_deterministic_jsonl;
        Alcotest.test_case "recovers" `Quick test_chaos_recovers;
        Alcotest.test_case "kpi budgets compile to slos" `Quick
          test_chaos_slo_compilation;
        Alcotest.test_case "rejects bad scenarios" `Quick test_chaos_rejects_bad_scenarios;
        Alcotest.test_case "repair oracle agreement" `Quick test_chaos_repair_agreement;
        Alcotest.test_case "startup burn pin" `Quick test_chaos_startup_burn_pin;
      ]
      @ List.map
          (fun ((name, _, _) as pin) ->
            Alcotest.test_case ("golden pin " ^ name) `Quick (test_chaos_pin pin))
          chaos_pins );
    ("fault.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
