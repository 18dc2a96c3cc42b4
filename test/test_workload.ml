(* Direct coverage for lib/workload/generators.ml: validity of emitted
   demands (idle boxes, in-range videos), rate bounds, mu-growth
   compliance of the flash crowd, determinism under equal seeds, and the
   scripted generators (replay, nothing). *)

open Vod_util

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let make_sim ?(n = 24) ?(u = 2.0) ?(d = 4.0) ?(c = 4) ?(k = 2) ?(mu = 1.5)
    ?(duration = 12) () =
  let sys = Vod.System.homogeneous ~n ~u ~d ~c ~k ~mu ~duration () in
  (Vod.System.engine ~policy:Vod.Engine.Continue sys, Vod.System.catalog_size sys)

(* Drive [rounds] rounds, recording the generator's output and asserting
   every demand targets an idle box and an in-range video. *)
let drive ?(rounds = 20) gen =
  let sim, m = make_sim () in
  let script = ref [] in
  for _ = 1 to rounds do
    let time = Vod.Engine.now sim + 1 in
    let demands = gen sim time in
    List.iter
      (fun (b, v) ->
        checkb "video in range" true (v >= 0 && v < m);
        checkb "box in range" true (b >= 0 && b < 24))
      demands;
    List.iter
      (fun (b, v) -> if Vod.Engine.is_idle sim b then Vod.Engine.demand sim ~box:b ~video:v)
      demands;
    script := (time, demands) :: !script;
    ignore (Vod.Engine.step sim)
  done;
  List.rev !script

let test_generators_only_target_idle_boxes () =
  let g = Prng.create ~seed:3 () in
  let sim, _m = make_sim () in
  let gen = Vod.Generators.uniform_arrivals g ~rate:6.0 in
  for _ = 1 to 25 do
    let time = Vod.Engine.now sim + 1 in
    let demands = gen sim time in
    List.iter
      (fun (b, _) -> checkb "targets only idle boxes" true (Vod.Engine.is_idle sim b))
      demands;
    (* no box is demanded twice in one round *)
    let boxes = List.map fst demands in
    checki "no duplicate boxes" (List.length boxes)
      (List.length (List.sort_uniq compare boxes));
    List.iter (fun (b, v) -> Vod.Engine.demand sim ~box:b ~video:v) demands;
    ignore (Vod.Engine.step sim)
  done

let test_determinism_under_equal_seeds () =
  let mk seed kind =
    let g = Prng.create ~seed () in
    match kind with
    | `Zipf -> Vod.Generators.zipf_arrivals g ~rate:3.0 ~s:0.9
    | `Uniform -> Vod.Generators.uniform_arrivals g ~rate:3.0
    | `Flash -> Vod.Generators.flash_crowd g ~video:1 ~background_rate:1.0 ()
    | `Diurnal -> Vod.Generators.diurnal g ~peak_rate:4.0 ~period:8 ~s:0.8
    | `Constant -> Vod.Generators.constant_per_round g ~per_round:3
  in
  List.iter
    (fun kind ->
      let s1 = drive (mk 11 kind) and s2 = drive (mk 11 kind) in
      checkb "equal seeds, equal scripts" true (s1 = s2);
      let s3 = drive (mk 12 kind) in
      (* different seeds almost surely differ somewhere over 20 rounds *)
      ignore s3)
    [ `Zipf; `Uniform; `Flash; `Diurnal; `Constant ];
  (* and different seeds do differ for at least one generator kind *)
  let s1 = drive (mk 11 `Uniform) and s2 = drive (mk 12 `Uniform) in
  checkb "different seeds, different scripts" true (s1 <> s2)

let test_constant_rate_bound () =
  let g = Prng.create ~seed:5 () in
  let sim, _ = make_sim ~n:10 () in
  let gen = Vod.Generators.constant_per_round g ~per_round:4 in
  (* round 1: 10 idle boxes, exactly 4 demands *)
  let d1 = gen sim 1 in
  checki "exactly per_round when idle boxes abound" 4 (List.length d1);
  List.iter (fun (b, v) -> Vod.Engine.demand sim ~box:b ~video:v) d1;
  ignore (Vod.Engine.step sim);
  (* keep demanding: the generator must cap at the idle population *)
  for _ = 1 to 5 do
    let time = Vod.Engine.now sim + 1 in
    let ds = gen sim time in
    let idle = Array.length (Vod.Engine.idle_boxes sim) in
    checkb "capped by idle population" true (List.length ds <= min 4 idle);
    List.iter (fun (b, v) -> Vod.Engine.demand sim ~box:b ~video:v) ds;
    ignore (Vod.Engine.step sim)
  done

let test_poisson_rate_is_calibrated () =
  (* mean of Poisson(rate) arrivals over many fresh rounds ~ rate; use a
     large idle fleet so the idle-box cap never binds *)
  let g = Prng.create ~seed:9 () in
  let sim, _ = make_sim ~n:500 () in
  let gen = Vod.Generators.uniform_arrivals g ~rate:2.0 in
  let total = ref 0 in
  let rounds = 300 in
  for time = 1 to rounds do
    total := !total + List.length (gen sim time)
    (* no demands registered: the fleet stays idle, rounds independent *)
  done;
  let mean = float_of_int !total /. float_of_int rounds in
  checkb "empirical mean within 25% of rate" true (mean > 1.5 && mean < 2.5)

let test_flash_crowd_respects_mu () =
  let g = Prng.create ~seed:13 () in
  let sim, _ = make_sim ~n:200 ~mu:1.5 ~c:2 ~k:2 () in
  let gen = Vod.Generators.flash_crowd g ~video:0 () in
  for _ = 1 to 12 do
    let time = Vod.Engine.now sim + 1 in
    let size = Vod.Engine.swarm_size sim 0 in
    let bound =
      int_of_float (ceil (float_of_int (max size 1) *. 1.5)) - size
    in
    let demands = gen sim time in
    checkb "growth within the mu bound" true (List.length demands <= bound);
    List.iter (fun (b, v) -> Vod.Engine.demand sim ~box:b ~video:v) demands;
    ignore (Vod.Engine.step sim)
  done;
  (* the swarm did grow: the generator is not vacuously compliant *)
  checkb "swarm grew" true (Vod.Engine.swarm_size sim 0 > 1)

let test_diurnal_trough_is_silent () =
  let g = Prng.create ~seed:17 () in
  let sim, _ = make_sim () in
  let gen = Vod.Generators.diurnal g ~peak_rate:50.0 ~period:8 ~s:0.9 in
  (* at t = 6 = 3/4 period the rate is peak * (1 + sin(3pi/2)) / 2 = 0 *)
  checki "no demands at the trough" 0 (List.length (gen sim 6));
  Alcotest.check_raises "rejects period < 1"
    (Invalid_argument "Generators.diurnal: period must be >= 1") (fun () ->
      ignore (Vod.Generators.diurnal g ~peak_rate:1.0 ~period:0 ~s:0.9 : Vod.Generators.t))

let test_replay_and_nothing () =
  let sim, _ = make_sim () in
  let script = [ (1, 0, 2); (1, 1, 3); (3, 2, 0) ] in
  let gen = Vod.Generators.replay script in
  checkb "replay round 1" true (gen sim 1 = [ (0, 2); (1, 3) ]);
  checkb "replay round 2 empty" true (gen sim 2 = []);
  checkb "replay round 3" true (gen sim 3 = [ (2, 0) ]);
  checkb "nothing is empty" true (Vod.Generators.nothing sim 1 = [])

let test_zipf_prefers_popular_videos () =
  (* Zipf(1.2) over the catalog: video 0 must be demanded more often
     than the median video over many independent rounds *)
  let g = Prng.create ~seed:23 () in
  let sim, m = make_sim ~n:400 () in
  let gen = Vod.Generators.zipf_arrivals g ~rate:4.0 ~s:1.2 in
  let counts = Array.make m 0 in
  for time = 1 to 400 do
    List.iter (fun (_, v) -> counts.(v) <- counts.(v) + 1) (gen sim time)
  done;
  let mid = counts.(m / 2) in
  checkb "head video beats median video" true (counts.(0) > mid)

let suites =
  [
    ( "workload.generators",
      [
        Alcotest.test_case "only idle boxes, no duplicates" `Quick
          test_generators_only_target_idle_boxes;
        Alcotest.test_case "determinism under equal seeds" `Quick
          test_determinism_under_equal_seeds;
        Alcotest.test_case "constant rate bound" `Quick test_constant_rate_bound;
        Alcotest.test_case "poisson rate calibration" `Quick test_poisson_rate_is_calibrated;
        Alcotest.test_case "flash crowd respects mu" `Quick test_flash_crowd_respects_mu;
        Alcotest.test_case "diurnal trough is silent" `Quick test_diurnal_trough_is_silent;
        Alcotest.test_case "replay and nothing" `Quick test_replay_and_nothing;
        Alcotest.test_case "zipf popularity skew" `Quick test_zipf_prefers_popular_videos;
      ] );
  ]
