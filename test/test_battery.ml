(* Tests for the scenario battery: KPI extraction and budget breaches,
   the ranked scorecard (golden pin, --jobs byte-identity), helper-fleet
   semantics (plan expansion, monotone relief, departure = crash) and
   the Theorem 2 rich/poor balance regression. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Plan = Vod_fault.Plan
module Scenario = Vod_fault.Scenario
module Chaos = Vod_fault.Chaos
module Helpers = Vod_fault.Helpers
module Theorem2 = Vod_analysis.Theorem2
module Kpi = Vod_battery.Kpi
module Battery = Vod_battery.Battery

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* KPI budgets                                                         *)
(* ------------------------------------------------------------------ *)

let test_kpi_breaches () =
  let v =
    {
      Kpi.rejection_rate = 0.02;
      startup_p95 = 3.0;
      time_to_repair = -1;
      sourcing_share = 0.9;
      recovered = false;
    }
  in
  checkb "no budget, no breach" true (Kpi.breaches Scenario.no_budget v = []);
  let budget =
    {
      Scenario.max_rejection = Some 0.01;
      max_startup_p95 = Some 3.0;
      max_time_to_repair = Some 10;
      max_sourcing_share = Some 0.5;
      require_recovery = true;
    }
  in
  let bs = Kpi.breaches budget v in
  (* p95 3.0 is within its 3.0 budget (strict >): four breaches remain *)
  checki "breaches counted" 4 (List.length bs);
  checks "fixed KPI order, fixed-point floats" "rejection 0.0200 > 0.0100" (List.hd bs);
  checkb "unreached repair breaches any ttr budget" true
    (List.mem "time-to-repair never <= 10" bs);
  checkb "sourcing share breach" true (List.mem "sourcing-share 0.9000 > 0.5000" bs);
  checks "recovery breach is last" "recovery required" (List.nth bs 3);
  let late = Kpi.breaches budget { v with time_to_repair = 12; recovered = true } in
  checkb "late repair names the round count" true (List.mem "time-to-repair 12 > 10" late)

(* ------------------------------------------------------------------ *)
(* Scorecard: golden pin + jobs byte-identity                          *)
(* ------------------------------------------------------------------ *)

let battery_dir = Filename.concat ".." (Filename.concat "examples" "battery")

let battery_scenarios () =
  let files =
    Sys.readdir battery_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort String.compare
  in
  checkb "curated battery has at least 8 scenarios" true (List.length files >= 8);
  List.map
    (fun f ->
      match Scenario.load ~path:(Filename.concat battery_dir f) with
      | Ok s -> s
      | Error m -> Alcotest.fail m)
    files

let battery_configs = [ Result.get_ok (Chaos.config_of_name "scratch") ]

let test_golden_scorecard () =
  let scenarios = battery_scenarios () in
  let r = Result.get_ok (Battery.run ~jobs:1 ~configs:battery_configs scenarios) in
  checkb "curated battery is within budget" true (Battery.ok r);
  checki "full matrix ran" (List.length scenarios) (List.length r.Battery.cells);
  let golden = In_channel.with_open_text "battery_golden.jsonl" In_channel.input_all in
  checks "scorecard matches the golden pin" golden r.Battery.jsonl;
  let r2 = Result.get_ok (Battery.run ~jobs:2 ~configs:battery_configs scenarios) in
  checks "jobs=1 and jobs=2 byte-identical" r.Battery.jsonl r2.Battery.jsonl;
  checks "ranking table equally deterministic" r.Battery.table r2.Battery.table

let small_text =
  {|n 24
u 2.0
d 4
c 2
k 3
m 12
mu 1.2
duration 8
rounds 30
seed 7
rate 1.0
target_k 2
|}

let test_battery_breach_verdict () =
  let ok_s = Result.get_ok (Scenario.parse ~name:"fine" small_text) in
  (* an impossible p95 budget: any admitted demand breaches it *)
  let bad_s =
    Result.get_ok (Scenario.parse ~name:"doomed" (small_text ^ "kpi max-startup-p95 0\n"))
  in
  let r =
    Result.get_ok (Battery.run ~configs:[ Chaos.default_config ] [ ok_s; bad_s ])
  in
  checkb "breached battery fails" false (Battery.ok r);
  checki "one cell breached" 1 r.Battery.breached;
  checkb "summary says not ok" true (contains r.Battery.jsonl {|"breached":1,"ok":false|});
  (* worst-first: the breached cell leads the ranking *)
  (match r.Battery.cells with
  | worst :: _ ->
      checks "breached cell ranked first" "doomed" worst.Battery.scenario.Scenario.name;
      checkb "its breach is recorded" true (worst.Battery.breaches <> [])
  | [] -> Alcotest.fail "empty report");
  match (Battery.run ~configs:[] [ ok_s ], Battery.run ~configs:[ Chaos.default_config ] []) with
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "empty configs/scenarios must be errors"

let test_config_names () =
  List.iter
    (fun name ->
      match Chaos.config_of_name name with
      | Ok c -> checks "label echoes the name" name c.Chaos.label
      | Error m -> Alcotest.fail m)
    [ "scratch"; "sticky"; "prefer-cache"; "balance-load"; "round-robin" ];
  match Chaos.config_of_name "bogus" with
  | Ok _ -> Alcotest.fail "parsed unknown config"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Scenario directives: round-trip + error naming                      *)
(* ------------------------------------------------------------------ *)

let test_scenario_error_names () =
  (* line-level errors carry file and line *)
  (match Scenario.parse ~name:"bad.scn" "n 4\nbogus 3\n" with
  | Ok _ -> Alcotest.fail "parsed unknown directive"
  | Error m ->
      checkb
        (Printf.sprintf "line error names file and line in %S" m)
        true
        (String.starts_with ~prefix:"bad.scn:2: " m));
  (* semantic (whole-file) errors carry the file name, no line *)
  (match Scenario.parse ~name:"bad.scn" (small_text ^ "helpers 0 2.0 1.0\n") with
  | Ok _ -> Alcotest.fail "parsed an empty helper fleet"
  | Error m ->
      checkb
        (Printf.sprintf "check error names the file in %S" m)
        true
        (String.starts_with ~prefix:"bad.scn: " m));
  (match Scenario.parse ~name:"bad.scn" (small_text ^ "kpi max-rejection x\n") with
  | Ok _ -> Alcotest.fail "parsed a non-numeric budget"
  | Error m -> checkb "kpi parse error has a line" true (String.starts_with ~prefix:"bad.scn:" m));
  match Scenario.load ~path:"/definitely/not/there.scn" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error m -> checkb "load error names the file" true (contains m "there.scn")

let test_new_directives_parse () =
  let text =
    small_text
    ^ {|groups 4
helpers 4 2.0 1.0
helpers 2 1.5 0.5
population rich-poor 0.4 3.0 0.75 1.25
kpi max-rejection 0.01
kpi max-time-to-repair 20
kpi require-recovery true
at 5 helper-join 0
at 10 helper_leave 0
at 12 group-degrade 2 0.5
at 15 group_restore 2
|}
  in
  match Scenario.parse ~name:"inline" text with
  | Error m -> Alcotest.fail m
  | Ok s ->
      checki "two helper fleets" 2 (List.length s.Scenario.helpers);
      checki "first fleet size" 4 (List.hd s.Scenario.helpers).Helpers.count;
      (match s.Scenario.population with
      | Scenario.Rich_poor { u_star; _ } -> checkb "u_star" true (u_star = 1.25)
      | Scenario.Homogeneous -> Alcotest.fail "population lost");
      checkb "kpi budget" true (s.Scenario.kpi.Scenario.max_rejection = Some 0.01);
      checkb "require-recovery" true s.Scenario.kpi.Scenario.require_recovery;
      (* underscore and hyphen verbs are the same event *)
      checkb "helper events" true
        (List.mem (5, Plan.Helper_join 0) s.Scenario.events
        && List.mem (10, Plan.Helper_leave 0) s.Scenario.events);
      checkb "group events" true
        (List.mem (12, Plan.Group_degrade (2, 0.5)) s.Scenario.events
        && List.mem (15, Plan.Group_restore 2) s.Scenario.events)

let roundtrip_qcheck =
  let open QCheck in
  Test.make ~name:"scenario: battery directives round-trip through to_text" ~count:50
    (quad (int_range 1 5) (int_range 0 20) (int_range 0 10) (int_range 1 40))
    (fun (count, q20, frac10, t) ->
      let u = float_of_int q20 /. 4.0 in
      let frac = float_of_int frac10 /. 10.0 in
      let text =
        small_text
        ^ Printf.sprintf
            "groups 4\nhelpers %d %g 1.5\nhelpers 2 1.25 %g\n\
             population rich-poor %g 3 0.75 1.25\n\
             kpi max-rejection %g\nkpi max-startup-p95 2.5\nkpi max-time-to-repair %d\n\
             kpi max-sourcing-share 0.9\nkpi require-recovery true\n\
             at %d helper-join 1\nat %d helper-leave 0\n\
             at %d group-degrade 2 0.25\nat %d group-restore 2\n"
            count u (1.0 +. u) frac frac t t t t t
      in
      match Scenario.parse ~name:"gen" text with
      | Error m -> Test.fail_report m
      | Ok s -> (
          let t1 = Scenario.to_text s in
          match Scenario.parse ~name:"gen" t1 with
          | Error m -> Test.fail_report ("to_text does not reparse: " ^ m)
          | Ok s' -> Scenario.to_text s' = t1))

(* ------------------------------------------------------------------ *)
(* Helper fleets                                                       *)
(* ------------------------------------------------------------------ *)

let test_helper_plan_expansion () =
  let helpers = [| (8, 2) |] in
  (match
     Plan.compile ~helpers ~seed:1 ~n:10
       [ (3, Plan.Helper_join 0); (7, Plan.Helper_leave 0) ]
   with
  | Error m -> Alcotest.fail m
  | Ok p ->
      checkb "join is a per-box rejoin" true
        (Plan.events_at p 3 = [ Plan.Rejoin 8; Plan.Rejoin 9 ]);
      checkb "leave is a per-box crash" true
        (Plan.events_at p 7 = [ Plan.Crash 8; Plan.Crash 9 ]));
  (match Plan.compile ~helpers ~seed:1 ~n:10 [ (3, Plan.Helper_join 1) ] with
  | Ok _ -> Alcotest.fail "compiled a helper event with no such fleet"
  | Error _ -> ());
  let topology = Topology.uniform_groups ~n:8 ~groups:4 in
  match
    Plan.compile ~topology ~seed:1 ~n:8
      [ (2, Plan.Group_degrade (1, 0.5)); (6, Plan.Group_restore 1) ]
  with
  | Error m -> Alcotest.fail m
  | Ok p ->
      checkb "group degrade expands over members" true
        (Plan.events_at p 2 = [ Plan.Degrade (1, 0.5); Plan.Degrade (5, 0.5) ]);
      checkb "group restore expands over members" true
        (Plan.events_at p 6 = [ Plan.Restore 1; Plan.Restore 5 ])

let test_engine_helper_flag () =
  let params = Params.make ~n:4 ~c:2 ~mu:1.2 ~duration:8 in
  let fleet = Box.Fleet.homogeneous ~n:4 ~u:2.0 ~d:4.0 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:3 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.set_helper e 1 true;
  checkb "flag readable" true (Engine.is_helper e 1);
  checkb "helpers are not idle viewers" true
    (not (Array.mem 1 (Engine.idle_boxes e)));
  Alcotest.check_raises "demand on a helper raises"
    (Invalid_argument "Engine.demand: box is a helper (takes no demands)") (fun () ->
      Engine.demand e ~box:1 ~video:0);
  (* generators feeding a helper through Engine.run are skipped silently *)
  let reports = Engine.run e ~rounds:2 ~demands_for:(fun _ _ -> [ (1, 0); (2, 1) ]) in
  checki "only the viewer admitted" 1 (List.hd reports).Engine.new_demands;
  Engine.set_helper e 1 false;
  Engine.demand e ~box:1 ~video:0;
  let r = Engine.step e in
  checki "unflagged box admits demands" 1 r.Engine.new_demands

(* Helper relief, as a property: a single admission wave over the base
   boxes (every box idle, so both runs admit the same demands) is never
   served worse when a helper fleet with its seeded replicas is online. *)
let helper_relief_qcheck =
  let open QCheck in
  Test.make ~name:"battery: helpers never increase rejection (fixed demand)" ~count:15
    (int_range 0 1_000_000)
    (fun seed ->
      let n = 16 and c = 2 and k = 3 and m = 12 in
      let base = Box.Fleet.homogeneous ~n ~u:0.75 ~d:4.0 in
      let catalog = Catalog.create ~m ~c in
      let g = Prng.create ~seed () in
      let base_alloc = Vod_alloc.Schemes.random_permutation g ~fleet:base ~catalog ~k in
      let script =
        List.init n (fun b -> (1, b, Prng.int g m))
        |> List.filter (fun _ -> Prng.int g 4 > 0)
      in
      let total_unserved reports =
        List.fold_left (fun acc r -> acc + r.Engine.unserved) 0 reports
      in
      let without =
        let params = Params.make ~n ~c ~mu:1.2 ~duration:8 in
        let e = Engine.create ~params ~fleet:base ~alloc:base_alloc ~policy:Engine.Continue () in
        total_unserved
          (Engine.run e ~rounds:16 ~demands_for:(Vod_workload.Generators.replay script))
      in
      let with_helpers =
        let specs = [ { Helpers.count = 4; u = 2.0; d = 2.0 } ] in
        let fleet = Helpers.extend_fleet base specs in
        let n_total = Array.length fleet in
        let params = Params.make ~n:n_total ~c ~mu:1.2 ~duration:8 in
        let alloc = Helpers.seed_allocation ~fleet ~c base_alloc in
        let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
        for b = n to n_total - 1 do
          Engine.set_helper e b true
        done;
        total_unserved
          (Engine.run e ~rounds:16 ~demands_for:(Vod_workload.Generators.replay script))
      in
      with_helpers <= without)

(* Helper departure IS the crash of a zero-demand box: a scenario using
   helper-leave and one crashing the helper range explicitly run in
   lockstep — every round report and every verdict field agrees. *)
let helper_lockstep_text =
  {|n 24
u 1.5
d 4
c 2
k 3
m 12
mu 1.2
duration 8
rounds 40
seed 13
rate 1.2
target_k 2
budget 3
transfer_rounds 2
helpers 3 2.0 1.0
at 5 helper-join 0
|}

let test_helper_leave_is_crash () =
  let a =
    Result.get_ok
      (Scenario.parse ~name:"leave" (helper_lockstep_text ^ "at 20 helper-leave 0\n"))
  in
  (* base fleet is 24 boxes, so the helper fleet occupies 24..26 *)
  let b =
    Result.get_ok
      (Scenario.parse ~name:"crash" (helper_lockstep_text ^ "at 20 crash 24 25 26\n"))
  in
  let oa = Result.get_ok (Chaos.run a) in
  let ob = Result.get_ok (Chaos.run b) in
  checki "same round count" (List.length oa.Chaos.reports) (List.length ob.Chaos.reports);
  List.iter2
    (fun ra rb ->
      checks
        (Printf.sprintf "round %d bit-identical" ra.Engine.time)
        (Format.asprintf "%a" Engine.pp_report ra)
        (Format.asprintf "%a" Engine.pp_report rb))
    oa.Chaos.reports ob.Chaos.reports;
  checki "same unserved" oa.Chaos.total_unserved ob.Chaos.total_unserved;
  checki "same time to repair" oa.Chaos.time_to_full_replication
    ob.Chaos.time_to_full_replication;
  checkb "same recovery verdict" true (oa.Chaos.recovered = ob.Chaos.recovered);
  (* everything after the meta line (which carries the scenario name) agrees *)
  let tail jsonl = List.tl (String.split_on_char '\n' jsonl) in
  checkb "jsonl tails identical" true (tail oa.Chaos.jsonl = tail ob.Chaos.jsonl)

(* ------------------------------------------------------------------ *)
(* Theorem 2: rich/poor populations at and below the u* balance         *)
(* ------------------------------------------------------------------ *)

let rich_poor_text ~rich_fraction ~u_poor =
  Printf.sprintf
    {|n 48
u 2.0
d 4.0
c 4
k 4
m 36
mu 1.2
duration 30
rounds 60
seed 42
rate 2.0
target_k 3
budget 4
transfer_rounds 5
population rich-poor %g 3.0 %g 1.25
|}
    rich_fraction u_poor

let test_theorem2_balance () =
  (* the balance point is compensable, an eps-starved poor class is not *)
  let balanced = Box.Fleet.two_class ~n:48 ~rich_fraction:0.4 ~u_rich:3.0 ~u_poor:0.75 ~d:4.0 in
  checkb "balanced fleet compensable at u*" true
    (Theorem2.compensate balanced ~u_star:1.25 <> None);
  let starved = Box.Fleet.two_class ~n:48 ~rich_fraction:0.2 ~u_rich:3.0 ~u_poor:0.25 ~d:4.0 in
  checkb "starved fleet not compensable at u*" true
    (Theorem2.compensate starved ~u_star:1.25 = None);
  (* end to end: the compensated balance admits every demand... *)
  let s =
    Result.get_ok
      (Scenario.parse ~name:"balanced" (rich_poor_text ~rich_fraction:0.4 ~u_poor:0.75))
  in
  let o = Result.get_ok (Chaos.run s) in
  checki "balance admits every demand" 0 o.Chaos.total_unserved;
  checkb "and recovers" true o.Chaos.recovered;
  (* ...an eps-starved poor population, running uncompensated because no
     relay assignment exists, stalls once the fleet saturates *)
  let s' =
    Result.get_ok
      (Scenario.parse ~name:"starved" (rich_poor_text ~rich_fraction:0.2 ~u_poor:0.25))
  in
  let o' = Result.get_ok (Chaos.run s') in
  checkb "starved population stalls requests" true (o'.Chaos.total_unserved > 0);
  let kpi = Kpi.of_outcome o' in
  checkb "rejection rate reflects the stalls" true (kpi.Kpi.rejection_rate > 0.0)

let qcheck_cases = [ roundtrip_qcheck; helper_relief_qcheck ]

let suites =
  [
    ( "battery.kpi",
      [
        Alcotest.test_case "budget breaches" `Quick test_kpi_breaches;
        Alcotest.test_case "config names" `Quick test_config_names;
      ] );
    ( "battery.scorecard",
      [
        Alcotest.test_case "golden pin + jobs identity" `Quick test_golden_scorecard;
        Alcotest.test_case "breach verdict" `Quick test_battery_breach_verdict;
      ] );
    ( "battery.scenario",
      [
        Alcotest.test_case "error naming" `Quick test_scenario_error_names;
        Alcotest.test_case "new directives parse" `Quick test_new_directives_parse;
      ] );
    ( "battery.helpers",
      [
        Alcotest.test_case "plan expansion" `Quick test_helper_plan_expansion;
        Alcotest.test_case "engine flag" `Quick test_engine_helper_flag;
        Alcotest.test_case "departure is a crash" `Quick test_helper_leave_is_crash;
      ] );
    ( "battery.theorem2",
      [ Alcotest.test_case "u* balance regression" `Quick test_theorem2_balance ] );
    ("battery.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
