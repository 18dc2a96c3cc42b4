(* Tests for the proof-internals exposure (phi curve), the diurnal
   workload and request scalability. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics
module OB = Vod_analysis.Obstruction_bound

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* phi curve                                                           *)
(* ------------------------------------------------------------------ *)

(* parameters with kappa comfortably positive (kappa = nu k - 2 = 8) so
   the minimiser sits well inside (1, nc) *)
let phi_params = (2.0, 64, 2, 120, 1.0 /. 12.0, 4.0)

let test_phi_unimodal () =
  (* the proof asserts phi decreases from phi(1) to a minimum then
     increases to phi(nc); verify the shape numerically *)
  let u_eff, n, c, k, nu, d_prime = phi_params in
  let phi i = OB.log_phi ~u_eff ~n ~c ~k ~nu ~d_prime ~i in
  let nc = n * c in
  let istar = OB.phi_minimiser ~u_eff ~n ~c ~k ~nu ~d_prime in
  checkb "minimiser interior" true (istar > 1.0 && istar < float_of_int nc);
  (* decreasing before i*, increasing after *)
  let i_lo = int_of_float (floor istar) and i_hi = int_of_float (ceil istar) + 1 in
  for i = 2 to i_lo - 1 do
    checkb (Printf.sprintf "decreasing at %d" i) true (phi i <= phi (i - 1) +. 1e-9)
  done;
  for i = i_hi + 1 to nc do
    checkb (Printf.sprintf "increasing at %d" i) true (phi i >= phi (i - 1) -. 1e-9)
  done;
  (* the analytic minimiser beats both endpoints *)
  let mid = int_of_float istar in
  checkb "min below phi(1)" true (phi (max 1 mid) < phi 1);
  checkb "min below phi(nc)" true (phi (max 1 mid) < phi nc)

let test_phi_minimiser_requires_kappa () =
  Alcotest.check_raises "kappa <= 0"
    (Invalid_argument "Obstruction_bound.phi_minimiser: requires k > 2/nu") (fun () ->
      ignore (OB.phi_minimiser ~u_eff:2.0 ~n:64 ~c:2 ~k:3 ~nu:(1.0 /. 12.0) ~d_prime:4.0))

(* ------------------------------------------------------------------ *)
(* Diurnal workload                                                    *)
(* ------------------------------------------------------------------ *)

let build_sim () =
  let n = 24 in
  let fleet = Box.Fleet.homogeneous ~n ~u:2.0 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:2.0 ~duration:10 in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c:2 ~k:2 in
  let catalog = Catalog.create ~m ~c:2 in
  let g = Prng.create ~seed:5 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ()

let test_diurnal_modulates_rate () =
  let sim = build_sim () in
  let g = Prng.create ~seed:7 () in
  let gen = Vod_workload.Generators.diurnal g ~peak_rate:6.0 ~period:40 ~s:0.8 in
  (* accumulate arrivals in the peak half vs trough half of a period *)
  let reports = Engine.run sim ~rounds:40 ~demands_for:gen in
  let peak = ref 0 and trough = ref 0 in
  List.iter
    (fun r ->
      (* sin > 0 for t in (0,20), < 0 for (20,40) *)
      if r.Engine.time < 20 then peak := !peak + r.Engine.new_demands
      else trough := !trough + r.Engine.new_demands)
    reports;
  checkb
    (Printf.sprintf "peak half busier (%d vs %d)" !peak !trough)
    true (!peak > !trough)

let test_diurnal_served () =
  let sim = build_sim () in
  let g = Prng.create ~seed:9 () in
  let gen = Vod_workload.Generators.diurnal g ~peak_rate:4.0 ~period:30 ~s:0.8 in
  let reports = Engine.run sim ~rounds:60 ~demands_for:gen in
  let m = Metrics.summarise reports in
  checkb "demand flowed" true (m.Metrics.total_demands > 10);
  checki "all served" 0 m.Metrics.total_unserved

(* ------------------------------------------------------------------ *)
(* Request scalability: all n boxes watching simultaneously            *)
(* ------------------------------------------------------------------ *)

let test_all_boxes_watching () =
  (* the paper's request-scalability requirement: the system must be
     able to handle up to n simultaneous requests.  Ramp arrivals
     (respecting nothing in particular — distinct videos, so every
     swarm has size 1) until every box is watching, and hold. *)
  let n = 32 in
  let fleet = Box.Fleet.homogeneous ~n ~u:1.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:2.0 ~duration:20 in
  let k = 3 in
  let m = Vod_alloc.Schemes.max_catalog ~fleet ~c:2 ~k in
  let catalog = Catalog.create ~m ~c:2 in
  let g = Prng.create ~seed:11 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  (* every round, every idle box demands a distinct video *)
  let next_video = ref 0 in
  let gen sim _time =
    Array.to_list (Engine.idle_boxes sim)
    |> List.map (fun b ->
           let v = !next_video mod m in
           incr next_video;
           (b, v))
  in
  let reports = Engine.run sim ~rounds:50 ~demands_for:gen in
  let metrics = Metrics.summarise reports in
  checki "nothing unserved at full occupancy" 0 metrics.Metrics.total_unserved;
  (* full request load reached: every box busy at some point *)
  checkb "all boxes simultaneously busy" true (metrics.Metrics.peak_busy = n);
  checkb "sustained full load" true
    (metrics.Metrics.peak_active >= n * 2 * 9 / 10)

let suites =
  [
    ( "analysis.phi",
      [
        Alcotest.test_case "unimodal shape" `Quick test_phi_unimodal;
        Alcotest.test_case "minimiser precondition" `Quick test_phi_minimiser_requires_kappa;
      ] );
    ( "workload.diurnal",
      [
        Alcotest.test_case "rate modulation" `Quick test_diurnal_modulates_rate;
        Alcotest.test_case "served" `Quick test_diurnal_served;
      ] );
    ( "sim.request_scalability",
      [ Alcotest.test_case "n simultaneous viewers" `Quick test_all_boxes_watching ] );
  ]
