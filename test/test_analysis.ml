(* Tests for vod_analysis: Theorem 1/2 parameter derivations and the
   Lemma 4 first-moment obstruction bound. *)

open Vod_model
open Vod_analysis

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf_loose msg = Alcotest.check (Alcotest.float 1e-6) msg

(* ------------------------------------------------------------------ *)
(* Theorem 1                                                           *)
(* ------------------------------------------------------------------ *)

let test_recommended_c () =
  (* u=2, mu=1: threshold (2-1)/(2-1)... (2*1-1)/(2-1) = 1 -> c = 2 *)
  checki "u=2 mu=1" 2 (Theorem1.recommended_c ~u:2.0 ~mu:1.0);
  (* u=1.5, mu=1.2: (2*1.44-1)/0.5 = 3.76 -> c = 4 *)
  checki "u=1.5 mu=1.2" 4 (Theorem1.recommended_c ~u:1.5 ~mu:1.2)

let test_recommended_c_invalid () =
  Alcotest.check_raises "u<=1" (Invalid_argument "Theorem1: requires u > 1") (fun () ->
      ignore (Theorem1.recommended_c ~u:1.0 ~mu:1.0));
  Alcotest.check_raises "u nan" (Invalid_argument "Theorem1: u and mu must be finite")
    (fun () -> ignore (Theorem1.derive ~u:Float.nan ~mu:1.2 ~d:4.0 ()));
  Alcotest.check_raises "d nan" (Invalid_argument "Theorem1.derive: d must be finite")
    (fun () -> ignore (Theorem1.derive ~u:2.0 ~mu:1.2 ~d:Float.nan ()))

let test_paper_c_at_least_recommended () =
  List.iter
    (fun (u, mu) ->
      let r = Theorem1.recommended_c ~u ~mu and p = Theorem1.paper_c ~u ~mu in
      checkb (Printf.sprintf "paper c valid for u=%g mu=%g" u mu) true (p >= r || p = r))
    [ (1.1, 1.0); (1.5, 1.1); (2.0, 1.2); (3.0, 1.5); (1.05, 1.0) ]

let test_nu_positive_in_valid_range () =
  List.iter
    (fun (u, mu) ->
      let c = Theorem1.paper_c ~u ~mu in
      let nu = Theorem1.nu ~u ~mu ~c in
      checkb (Printf.sprintf "0 < nu < 1 (u=%g mu=%g)" u mu) true (nu > 0.0 && nu < 1.0))
    [ (1.1, 1.0); (1.5, 1.1); (2.0, 1.2); (3.0, 1.5) ]

let test_nu_formula () =
  (* c=2, u=2, mu=1: nu = 1/(2+1) - 1/4 = 1/12 *)
  checkf "nu value" (1.0 /. 12.0) (Theorem1.nu ~u:2.0 ~mu:1.0 ~c:2)

let test_nu_invalid_c () =
  Alcotest.check_raises "uc too small"
    (Invalid_argument "Theorem1.nu: c violates u*c > c + 2 mu^2 - 1") (fun () ->
      ignore (Theorem1.nu ~u:1.1 ~mu:1.5 ~c:2))

let test_derive_consistency () =
  let t = Theorem1.derive ~u:2.0 ~mu:1.0 ~d:4.0 () in
  checki "c" 2 t.Theorem1.c;
  checkf "u_eff" 2.0 t.Theorem1.u_eff;
  checkf "d_prime" 4.0 t.Theorem1.d_prime;
  (* k = ceil(5 * 12 * ln 4 / ln 2) = ceil(120.0) = 120 *)
  checki "k" 120 t.Theorem1.k;
  checkb "k positive and finite" true (t.Theorem1.k > 0)

let test_derive_d_prime_floor () =
  (* d small: d' = max(d, u, e) = e *)
  let t = Theorem1.derive ~u:1.5 ~mu:1.0 ~d:1.0 () in
  checkf_loose "d' = e" (exp 1.0) t.Theorem1.d_prime

let test_catalog_size_linear_in_n () =
  let t = Theorem1.derive ~u:2.0 ~mu:1.0 ~d:4.0 () in
  let m1 = Theorem1.catalog_size t ~n:1000 in
  let m2 = Theorem1.catalog_size t ~n:2000 in
  checkb "doubling n doubles m" true (abs (m2 - (2 * m1)) <= 1);
  checkb "m positive at n=1000" true (m1 > 0)

let test_asymptotic_factor_shape () =
  (* increasing near 1, and (u-1)^3-like decay towards the threshold *)
  let f u = Theorem1.asymptotic_catalog_factor ~u ~mu:1.0 in
  checkb "monotone near threshold" true (f 1.1 < f 1.5 && f 1.5 < f 2.0);
  let ratio = f 1.01 /. f 1.02 in
  (* (0.01/0.02)^2 * log ratio ~ (0.01/0.02)^3 = 1/8 *)
  checkb "cubic-ish decay" true (ratio > 0.1 && ratio < 0.2)

let test_negative_result_bound () =
  checki "d_max * c" 12 (Theorem1.max_catalog_below_threshold ~d_max:3.0 ~c:4);
  checki "fractional" 10 (Theorem1.max_catalog_below_threshold ~d_max:2.5 ~c:4)

(* ------------------------------------------------------------------ *)
(* Theorem 2                                                           *)
(* ------------------------------------------------------------------ *)

let test_t2_recommended_c () =
  (* u*=2, mu=1: 10*1/(1) = 10 *)
  checki "c" 10 (Theorem2.recommended_c ~u_star:2.0 ~mu:1.0)

let test_t2_derive () =
  let t = Theorem2.derive ~u_star:2.0 ~mu:1.0 ~d:4.0 () in
  checki "c" 10 t.Theorem2.c;
  (* u' = (10+3)/10 *)
  checkf "u_eff" 1.3 t.Theorem2.u_eff;
  checkb "nu in (0,1)" true (t.Theorem2.nu > 0.0 && t.Theorem2.nu < 1.0);
  checkb "k positive" true (t.Theorem2.k > 0)

let test_t2_invalid () =
  Alcotest.check_raises "u_star <= 1" (Invalid_argument "Theorem2: requires u_star > 1")
    (fun () -> ignore (Theorem2.recommended_c ~u_star:1.0 ~mu:1.0));
  Alcotest.check_raises "mu infinite"
    (Invalid_argument "Theorem2: u_star and mu must be finite") (fun () ->
      ignore (Theorem2.derive ~u_star:1.5 ~mu:Float.infinity ~d:4.0 ()));
  Alcotest.check_raises "d nan" (Invalid_argument "Theorem2.derive: d must be finite")
    (fun () -> ignore (Theorem2.derive ~u_star:1.5 ~mu:1.2 ~d:Float.nan ()))

let test_compensate_two_class () =
  (* 2 rich boxes u=4, 4 poor boxes u=0.5, u*=1.25:
     each poor needs 1.25+1-1 = 1.25; headroom per rich = 2.75 -> 2 each *)
  let fleet = Box.Fleet.two_class ~n:6 ~rich_fraction:0.34 ~u_rich:4.0 ~u_poor:0.5 ~d:4.0 in
  match Theorem2.compensate fleet ~u_star:1.25 with
  | None -> Alcotest.fail "expected compensation"
  | Some comp ->
      Array.iteri
        (fun b r ->
          if fleet.(b).Box.upload < 1.25 then begin
            checkb "poor has relay" true (r >= 0);
            checkb "relay is rich" true (fleet.(r).Box.upload >= 1.25)
          end
          else checki "rich has none" (-1) r)
        comp.Theorem2.relay_of;
      (* reservations never eat below u_star *)
      Array.iteri
        (fun a res ->
          if res > 0.0 then
            checkb "headroom respected" true
              (fleet.(a).Box.upload -. res >= 1.25 -. 1e-9))
        comp.Theorem2.reserved

let test_compensate_infeasible () =
  (* one rich box cannot absorb ten poor boxes *)
  let fleet = Box.Fleet.two_class ~n:11 ~rich_fraction:0.05 ~u_rich:2.0 ~u_poor:0.2 ~d:4.0 in
  checkb "infeasible" true (Theorem2.compensate fleet ~u_star:1.5 = None)

let test_compensate_no_poor () =
  let fleet = Box.Fleet.homogeneous ~n:4 ~u:2.0 ~d:4.0 in
  match Theorem2.compensate fleet ~u_star:1.5 with
  | None -> Alcotest.fail "trivially compensable"
  | Some comp ->
      Array.iter (fun r -> checki "no relays needed" (-1) r) comp.Theorem2.relay_of

let test_scalability_lower_bound () =
  let fleet = Box.Fleet.two_class ~n:10 ~rich_fraction:0.5 ~u_rich:2.0 ~u_poor:0.5 ~d:4.0 in
  (* deficit wrt 1.0 = 5 * 0.5 = 2.5; bound = 1 + 0.25 *)
  checkf "bound" 1.25 (Theorem2.scalability_lower_bound fleet)

(* ------------------------------------------------------------------ *)
(* Obstruction bound                                                   *)
(* ------------------------------------------------------------------ *)

let test_log_binomial () =
  checkf "C(5,2)" (log 10.0) (Obstruction_bound.log_binomial 5 2);
  checkf "C(n,0)" 0.0 (Obstruction_bound.log_binomial 7 0);
  checkb "out of range" true (Obstruction_bound.log_binomial 3 5 = neg_infinity)

let test_union_bound_decreases_in_k () =
  let bound k =
    Obstruction_bound.log_union_bound ~u_eff:2.0 ~nu:(1.0 /. 12.0) ~n:64 ~c:2 ~k ~m:16
  in
  let b1 = bound 4 and b2 = bound 8 and b3 = bound 16 in
  checkb "monotone decreasing" true (b1 > b2 && b2 > b3)

let test_union_bound_eventually_small () =
  (* with enough replication the bound certifies high probability *)
  let b =
    Obstruction_bound.log_union_bound ~u_eff:2.0 ~nu:(1.0 /. 12.0) ~n:64 ~c:2 ~k:60 ~m:4
  in
  checkb "certifies w.h.p." true (b < log 0.01)

let test_union_bound_invalid () =
  Alcotest.check_raises "nu range"
    (Invalid_argument "Obstruction_bound.log_union_bound: nu outside (0,1)") (fun () ->
      ignore (Obstruction_bound.log_union_bound ~u_eff:2.0 ~nu:1.5 ~n:8 ~c:2 ~k:2 ~m:2))

let test_min_k_matches_bound () =
  let u_eff = 2.0 and nu = 1.0 /. 12.0 and n = 64 and c = 2 and m = 8 in
  let target = log 0.01 in
  match Obstruction_bound.min_k_for_target ~u_eff ~nu ~n ~c ~m ~target_log:target with
  | None -> Alcotest.fail "expected a k"
  | Some k ->
      checkb "k achieves the target" true
        (Obstruction_bound.log_union_bound ~u_eff ~nu ~n ~c ~k ~m <= target);
      if k > 1 then
        checkb "k-1 does not" true
          (Obstruction_bound.log_union_bound ~u_eff ~nu ~n ~c ~k:(k - 1) ~m > target)

let test_min_k_below_theorem_k () =
  (* the numeric union bound is never weaker than the closed-form k of
     Theorem 1 (the theorem rounds up aggressively) *)
  let t = Theorem1.derive ~u:2.0 ~mu:1.0 ~d:4.0 () in
  let m = 8 and n = 64 in
  match
    Obstruction_bound.min_k_for_target ~u_eff:t.Theorem1.u_eff ~nu:t.Theorem1.nu ~n
      ~c:t.Theorem1.c ~m ~target_log:(log 0.01)
  with
  | None -> Alcotest.fail "expected a k"
  | Some k -> checkb "numeric k <= theorem k" true (k <= t.Theorem1.k)

let suites =
  [
    ( "analysis.theorem1",
      [
        Alcotest.test_case "recommended c" `Quick test_recommended_c;
        Alcotest.test_case "recommended c invalid" `Quick test_recommended_c_invalid;
        Alcotest.test_case "paper c" `Quick test_paper_c_at_least_recommended;
        Alcotest.test_case "nu positive" `Quick test_nu_positive_in_valid_range;
        Alcotest.test_case "nu formula" `Quick test_nu_formula;
        Alcotest.test_case "nu invalid c" `Quick test_nu_invalid_c;
        Alcotest.test_case "derive" `Quick test_derive_consistency;
        Alcotest.test_case "d_prime floor" `Quick test_derive_d_prime_floor;
        Alcotest.test_case "catalog linear in n" `Quick test_catalog_size_linear_in_n;
        Alcotest.test_case "asymptotic factor" `Quick test_asymptotic_factor_shape;
        Alcotest.test_case "negative-result bound" `Quick test_negative_result_bound;
      ] );
    ( "analysis.theorem2",
      [
        Alcotest.test_case "recommended c" `Quick test_t2_recommended_c;
        Alcotest.test_case "derive" `Quick test_t2_derive;
        Alcotest.test_case "invalid" `Quick test_t2_invalid;
        Alcotest.test_case "compensate two-class" `Quick test_compensate_two_class;
        Alcotest.test_case "compensate infeasible" `Quick test_compensate_infeasible;
        Alcotest.test_case "compensate trivial" `Quick test_compensate_no_poor;
        Alcotest.test_case "scalability lower bound" `Quick test_scalability_lower_bound;
      ] );
    ( "analysis.obstruction",
      [
        Alcotest.test_case "log binomial" `Quick test_log_binomial;
        Alcotest.test_case "monotone in k" `Quick test_union_bound_decreases_in_k;
        Alcotest.test_case "eventually small" `Quick test_union_bound_eventually_small;
        Alcotest.test_case "invalid nu" `Quick test_union_bound_invalid;
        Alcotest.test_case "min_k bisect" `Quick test_min_k_matches_bound;
        Alcotest.test_case "min_k below theorem k" `Quick test_min_k_below_theorem_k;
      ] );
  ]
