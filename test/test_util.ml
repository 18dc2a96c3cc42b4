(* Unit and property tests for the vod_util substrate. *)

open Vod_util

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:7 () in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.int64 a = Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.int64 a <> Prng.int64 b then distinct := true
  done;
  checkb "different seeds diverge" true !distinct

let test_prng_copy_independence () =
  let a = Prng.create ~seed:3 () in
  let b = Prng.copy a in
  let va = Prng.int64 a in
  (* advancing [a] must not have advanced [b] *)
  let vb = Prng.int64 b in
  checkb "copy starts at same point" true (va = vb);
  ignore (Prng.int64 a);
  let va2 = Prng.int64 a and vb2 = Prng.int64 b in
  checkb "streams advance independently" true (va2 <> vb2 || va2 = vb2)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:11 () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_pow2 () =
  let g = Prng.create ~seed:13 () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 64 in
    checkb "in range pow2" true (v >= 0 && v < 64)
  done

let test_prng_int_invalid () =
  let g = Prng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

(* The accept test at its three edges: [max_int62 - bound] (the last
   draw the fast path takes), [limit - 1] (the last one the limit
   takes) and [limit] (the first one redrawn).  Random draws reach the
   last two with probability about bound / 2^62, so they are pinned
   here.  A power-of-two bound takes every draw. *)
let test_prng_accept_edges () =
  let max_int62 = (1 lsl 62) - 1 in
  List.iter
    (fun bound ->
      let limit = max_int62 - (max_int62 mod bound) in
      let at v = Prng.index_of_bits bound v in
      let name what = Printf.sprintf "bound %d, %s" bound what in
      checki (name "fast-path edge")
        ((max_int62 - bound) mod bound)
        (at (max_int62 - bound));
      checki (name "limit - 1") ((limit - 1) mod bound) (at (limit - 1));
      checki (name "limit") (-1) (at limit);
      checki (name "top") (-1) (at max_int62))
    [ 3; 5; 6; 7; 1_000_003; (1 lsl 61) - 1; (1 lsl 61) + 1; (1 lsl 62) - 3 ];
  List.iter
    (fun bound ->
      checki (Printf.sprintf "pow2 %d, top" bound) (max_int62 land (bound - 1))
        (Prng.index_of_bits bound max_int62))
    [ 1; 2; 64; 1 lsl 61 ]

(* The shuffle kernel keeps the generator state in unboxed locals: a
   whole shuffle allocates nothing beyond the two boxed floats the
   [Gc.minor_words] reads return. *)
let test_shuffle_kernel_allocates_nothing () =
  let a = Array.init 100_000 Fun.id and g = Prng.create ~seed:5 () in
  let w0 = Gc.minor_words () in
  Prng.shuffle_prefix g a (Array.length a);
  let words = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "%.0f words" words) true (words < 8.0)

let test_prng_float_unit () =
  let g = Prng.create ~seed:17 () in
  for _ = 1 to 10_000 do
    let v = Prng.float g 1.0 in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets over 100k draws stay within 5% of
     the expected count. *)
  let g = Prng.create ~seed:23 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let dev = abs (c - (n / 10)) in
      checkb "bucket within 5%" true (dev < n / 20))
    buckets

let test_prng_split_independence () =
  let g = Prng.create ~seed:31 () in
  let child = Prng.split g in
  let equal_run = ref true in
  for _ = 1 to 8 do
    if Prng.int64 g <> Prng.int64 child then equal_run := false
  done;
  checkb "split stream differs from parent" false !equal_run

let test_prng_jump_stable () =
  let g = Prng.create ~seed:3 () in
  let a = Prng.jump_to_stream g 4 and b = Prng.jump_to_stream g 4 in
  for _ = 1 to 32 do
    checkb "jump is a pure function of (g, i)" true (Prng.int64 a = Prng.int64 b)
  done;
  let c = Prng.jump_to_stream g 5 in
  checkb "distinct stream ids differ" true (Prng.int64 c <> Prng.int64 (Prng.jump_to_stream g 4))

(* The first 16 outputs of every draw, pinned per seed: [int64],
   [int g 1_000_003] and [int g (2^61 + 1)] (the rejection path, the
   second rejecting about half its draws), [float g 1.0], and [int64] of
   the [split] child and of the [jump_to_stream g 3] child.  Every
   golden stream downstream rests on these bits. *)
type prng_pin = {
  pin_seed : int;
  pin_int64 : int64 list;
  pin_int : int list;
  pin_reject : int list;
  pin_float : float list;
  pin_split : int64 list;
  pin_jump : int64 list;
}

let prng_pins =
  [
    {
      pin_seed = 0;
      pin_int64 =
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L; -2665238125909665999L;
          -1496805473226810819L; 2108416074180405844L; 1240209487116192693L;
          1967799970308132508L; -6367204219010229377L; 9150657576430337180L;
          5466973851375020728L ];
      pin_int =
        [ 718618; 387545; 368908; 749466; 861416; 836513; 710266; 841756; 18836; 872087;
          789750; 723301; 482934; 118418; 990893; 667307 ];
      pin_reject =
        [ 475095844711627192; 1921178025656535883; 1947106981244130086;
          527104018545101461; 310052371779048173; 491949992577033127;
          2287664394107584295; 1366743462843755182; 870162139428209060;
          266547869399763449; 1440386989308246172; 2276659594988686283;
          1483200616318392841; 1395582637495738939; 647827375404653751;
          1347087623986549316 ];
      pin_float =
        [ 0x1.33d8be6d96ebep-1; 0x1.7edc3ef092ac8p-1; 0x1.a5f849d4933ep-4;
          0x1.aa9653c498b4ap-2; 0x1.774b5a943f085p-1; 0x1.ffdf06ebb3d79p-1;
          0x1.b05837bb4bd52p-2; 0x1.12415ac91f861p-1; 0x1.b60658174ea72p-1;
          0x1.d6748eb47ce93p-1; 0x1.d42993fa43f28p-4; 0x1.1361bf526a148p-4;
          0x1.b4f07a5ab3d88p-4; 0x1.4f464afed30dbp-1; 0x1.fbf6aa558177ep-2;
          0x1.2f7a5f029e3aap-2 ];
      pin_split =
        [ 5518286860253071851L; 5198098526511828694L; 8466472784035676620L;
          12425333751943282L; -3080620164582013701L; -9161360879159799346L;
          2624222960415815568L; 3378575044916049102L; -1523563940506010180L;
          -1197695863448760501L; -2555909091743670786L; -1312242512925527668L;
          4651807611795549884L; -1927413719070702563L; 1848649706398778314L;
          -7471711289139751410L ];
      pin_jump =
        [ 7761503524922348511L; 6141476833080752928L; -1501275837539444618L;
          2697793893685659165L; 8514342173383937597L; -12567226015177280L;
          -3708089368694894917L; 2926092679276791822L; 1687651273558075927L;
          151857449248087338L; -9182867148158018000L; 9134308398870222407L;
          1015800347601842570L; -4639701320836779427L; -8094531426373849364L;
          -7410044594573541510L ];
    };
    {
      pin_seed = 42;
      pin_int64 =
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L; -4401865723017206658L;
          -7685848651408622531L; -5857710645598733967L; 5362058279183681893L;
          -3670453860372658506L; 5928998142081247042L; -5328343041887926323L;
          -2254796632595466246L ];
      pin_int =
        [ 47120; 95646; 293302; 328589; 760693; 263172; 221351; 564257; 924104; 877490;
          958572; 275681; 809830; 45405; 148771; 372280 ];
      pin_reject =
        [ 386749691100639685; 1747737923241135775; 1340514569795920473;
          1482249535520311760; 428241451981137462; 825596990374639498;
          2011600583562185327; 1448018208105111228; 2255998780752563472;
          1840024857190162741; 1066842241513734902; 1910487353987387135;
          206736083875502632; 2161719173959330428; 579455674371947228;
          1464122830706485307 ];
      pin_float =
        [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
          0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
          0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1; 0x1.85d2dce4dd2ecp-1;
          0x1.2aacc2beeebf7p-1; 0x1.5d6a766818207p-1; 0x1.29a76e61cebe2p-2;
          0x1.9a1fdb52600d8p-1; 0x1.4920219692d08p-2; 0x1.6c1bd877e5b1p-1;
          0x1.c16ab4d172ccep-1 ];
      pin_split =
        [ -8150312660505607085L; 1184342940732292706L; 8258043193327897829L;
          -7937530469794552443L; 4090181005887697149L; -2072551135223332111L;
          3558450685933495791L; -5406025633808992172L; 1879381385959382130L;
          -4837938882604465379L; -9138712183614892011L; 3545737951165234202L;
          3704235347420641025L; 1801194517537436708L; -7467389750124929091L;
          -4041656539192372095L ];
      pin_jump =
        [ 6468985842783907695L; -8797358010959313512L; -7276225280655781511L;
          8009369943574012100L; -1021868004626317859L; 4388159858042177815L;
          9132698269154538496L; 9175290022193528691L; 5971994948586495733L;
          -1206962530372066989L; 797499511344583299L; 3878661695296913216L;
          9035844023751225610L; 4185667937817451269L; -2745102830148880792L;
          -2932030841552151701L ];
    };
    {
      pin_seed = 1 lsl 40;
      pin_int64 =
        [ -7794965304565281922L; -44287127274702489L; 7040339152346828948L;
          -3994291882321842148L; 6688168523897792436L; 6955219940481456461L;
          -6774257906910435609L; 7690467217124919586L; -7388253301187821398L;
          -3975896847465844457L; -8365761434484622838L; 9093719666958592558L;
          1740187418392072818L; -8223910606874529708L; -6643511891876941389L;
          -4047855925004824284L ];
      pin_int =
        [ 956998; 407860; 183693; 301747; 103520; 57952; 416918; 120552; 234693; 66415;
          934921; 358729; 369821; 656659; 573376; 467707 ];
      pin_reject =
        [ 1760084788086707237; 1672042130974448109; 1738804985120364115;
          1922616804281229896; 2273429916739648139; 435046854598018204;
          392688819127076615; 142420681718737682; 271355015982419974;
          1617489967539042811; 487586675628484196; 1834836255386957538;
          1829335423631072183; 862752451972670574; 1016056707741903524;
          1683843171858660694 ];
      pin_float =
        [ 0x1.27a570b5c1c89p-1; 0x1.fec5522f4d567p-1; 0x1.86d13ca187a14p-2;
          0x1.9122d96431f5ep-1; 0x1.7344975923818p-2; 0x1.82179ebdfc716p-2;
          0x1.43fa00a68371cp-1; 0x1.aae81cc0a6122p-2; 0x1.32ef4d88d02f8p-1;
          0x1.91a58dc3ce67ep-1; 0x1.17cdb0991bc37p-1; 0x1.f8cd876d1033ap-2;
          0x1.826633cb3dd1p-4; 0x1.1bbd99c0195a6p-1; 0x1.479b02442f2eep-1;
          0x1.8fa640f720412p-1 ];
      pin_split =
        [ 4350218582159954124L; 2988085369641505467L; 6340060771686148126L;
          -8147427911558760135L; -2806976584612855409L; 7619115876021688840L;
          -7490988312623370274L; -733629890644114664L; -5476040157017510544L;
          8538480915108162065L; 6866949014076439124L; -3180702205583832815L;
          5117661315009811540L; 2445025399010590612L; -3910407437884002993L;
          -9133831456333635337L ];
      pin_jump =
        [ 793421895651558563L; 7203901824219909044L; -2984567595658074391L;
          -3606895481467882700L; -3989766554559515795L; -7502494743214992012L;
          4979786858684165949L; 1188541131493805068L; -2847954418491599444L;
          -942835418652267729L; -1237015806195248755L; 3435215007053704964L;
          230673593184281839L; 5786315571555775568L; 2865985045802975804L;
          -1040145508801440563L ];
    };
  ]

let test_prng_pinned_streams () =
  let first16 draw = List.init 16 (fun _ -> draw ()) in
  List.iter
    (fun p ->
      let fresh () = Prng.create ~seed:p.pin_seed () in
      let name what = Printf.sprintf "seed %d: %s" p.pin_seed what in
      let g = fresh () in
      check (Alcotest.list Alcotest.int64) (name "int64") p.pin_int64
        (first16 (fun () -> Prng.int64 g));
      let g = fresh () in
      check (Alcotest.list Alcotest.int) (name "int 1_000_003") p.pin_int
        (first16 (fun () -> Prng.int g 1_000_003));
      let g = fresh () in
      check (Alcotest.list Alcotest.int) (name "int 2^61+1") p.pin_reject
        (first16 (fun () -> Prng.int g ((1 lsl 61) + 1)));
      let g = fresh () in
      check (Alcotest.list (Alcotest.float 0.0)) (name "float") p.pin_float
        (first16 (fun () -> Prng.float g 1.0));
      let child = Prng.split (fresh ()) in
      check (Alcotest.list Alcotest.int64) (name "split child") p.pin_split
        (first16 (fun () -> Prng.int64 child));
      let child = Prng.jump_to_stream (fresh ()) 3 in
      check (Alcotest.list Alcotest.int64) (name "jump_to_stream child") p.pin_jump
        (first16 (fun () -> Prng.int64 child)))
    prng_pins

(* ------------------------------------------------------------------ *)
(* Sample                                                              *)
(* ------------------------------------------------------------------ *)

let test_shuffle_permutes () =
  let g = Prng.create ~seed:1 () in
  let a = Array.init 100 (fun i -> i) in
  Sample.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 100 (fun i -> i)) sorted

let test_choose_distinct () =
  let g = Prng.create ~seed:3 () in
  for _ = 1 to 100 do
    let chosen = Sample.choose_distinct g ~n:20 ~k:7 in
    checki "k elements" 7 (Array.length chosen);
    let tbl = Hashtbl.create 7 in
    Array.iter
      (fun x ->
        checkb "in range" true (x >= 0 && x < 20);
        checkb "distinct" false (Hashtbl.mem tbl x);
        Hashtbl.add tbl x ())
      chosen
  done

let test_choose_distinct_full () =
  let g = Prng.create ~seed:4 () in
  let chosen = Sample.choose_distinct g ~n:5 ~k:5 in
  let sorted = Array.copy chosen in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "k=n is a permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_choose_distinct_invalid () =
  let g = Prng.create () in
  Alcotest.check_raises "k>n" (Invalid_argument "Sample.choose_distinct") (fun () ->
      ignore (Sample.choose_distinct g ~n:3 ~k:4))

let test_categorical_matches_weights () =
  let g = Prng.create ~seed:6 () in
  let cat = Sample.Categorical.create [| 5.0; 1.0; 4.0 |] in
  checki "size" 3 (Sample.Categorical.size cat);
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Sample.Categorical.draw g cat in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "p0 ~ 0.5" true (abs (counts.(0) - 25_000) < 1500);
  checkb "p1 ~ 0.1" true (abs (counts.(1) - 5_000) < 800);
  checkb "p2 ~ 0.4" true (abs (counts.(2) - 20_000) < 1500)

let test_categorical_invalid () =
  Alcotest.check_raises "all-zero" (Invalid_argument "Sample: bad weights") (fun () ->
      ignore (Sample.Categorical.create [| 0.0; 0.0 |]))

let test_zipf_pmf_sums_to_one () =
  let z = Sample.Zipf.create ~n:100 ~s:1.0 in
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Sample.Zipf.pmf z i
  done;
  checkf "pmf normalised" 1.0 !total

let test_zipf_monotone () =
  let z = Sample.Zipf.create ~n:50 ~s:0.8 in
  for i = 0 to 48 do
    checkb "pmf decreasing in rank" true (Sample.Zipf.pmf z i >= Sample.Zipf.pmf z (i + 1))
  done

let test_zipf_draw_skew () =
  let g = Prng.create ~seed:7 () in
  let z = Sample.Zipf.create ~n:1000 ~s:1.2 in
  let top = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Sample.Zipf.draw g z < 10 then incr top
  done;
  (* with s=1.2 the top-10 ranks carry well over a third of the mass *)
  checkb "popularity skew present" true (!top > n / 3)

let test_poisson_moments () =
  let g = Prng.create ~seed:8 () in
  List.iter
    (fun lambda ->
      let r = Stats.Running.create () in
      for _ = 1 to 20_000 do
        Stats.Running.add r (float_of_int (Sample.poisson g lambda))
      done;
      let m = Stats.Running.mean r in
      checkb
        (Printf.sprintf "poisson(%g) mean ~ lambda (got %g)" lambda m)
        true
        (Float.abs (m -. lambda) < 0.1 +. (0.05 *. lambda)))
    [ 0.5; 3.0; 25.0; 80.0 ]

let test_poisson_zero () =
  let g = Prng.create () in
  checki "lambda=0" 0 (Sample.poisson g 0.0)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  checki "length" 100 (Vec.length v);
  for i = 0 to 99 do
    checki "get" (i * i) (Vec.get v i)
  done

let test_int_array_mem () =
  let a = [| 5; -1; 7; 5 |] in
  List.iter
    (fun x -> checkb (Printf.sprintf "mem %d" x) (Array.mem x a) (Int_array.mem x a))
    [ 5; -1; 7; 0; 6 ];
  checkb "empty" false (Int_array.mem 0 [||])

let test_vec_clear_reuse () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.clear v;
  checki "empty after clear" 0 (Vec.length v);
  Vec.push v 9;
  checki "reusable" 9 (Vec.get v 0)

let test_vec_ensure_capacity () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.ensure_capacity v 1000 0;
  checki "length unchanged" 3 (Vec.length v);
  checki "contents kept" 2 (Vec.get v 1);
  (* pushes up to the reserved capacity must not lose anything *)
  for i = 3 to 999 do
    Vec.push v i
  done;
  checki "grown" 1000 (Vec.length v);
  checki "front survives" 1 (Vec.get v 0);
  checki "tail correct" 999 (Vec.get v 999);
  Vec.ensure_capacity v 10 0;
  checki "shrink request is a no-op" 1000 (Vec.length v);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Vec.ensure_capacity: negative capacity") (fun () ->
      Vec.ensure_capacity v (-1) 0)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds")
    (fun () -> Vec.set v (-1) 0)

let test_vec_conversions () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 4; 5; 6 ];
  check (Alcotest.list Alcotest.int) "to_list" [ 4; 5; 6 ] (Vec.to_list v);
  check (Alcotest.array Alcotest.int) "to_array" [| 4; 5; 6 |] (Vec.to_array v);
  checki "fold" 15 (Vec.fold_left ( + ) 0 v);
  checkb "exists" true (Vec.exists (fun x -> x = 5) v);
  checkb "not exists" false (Vec.exists (fun x -> x = 7) v)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 200 in
  checki "empty" 0 (Bitset.cardinal b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 199;
  checki "cardinal" 4 (Bitset.cardinal b);
  checkb "mem 63" true (Bitset.mem b 63);
  checkb "mem 100" false (Bitset.mem b 100)

let test_bitset_add_idempotent () =
  let b = Bitset.create 10 in
  Bitset.add b 5;
  Bitset.add b 5;
  checki "idempotent" 1 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add b 10)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.add h) [ 5; 1; 4; 1; 9; 0 ];
  check (Alcotest.list Alcotest.int) "sorted drain" [ 0; 1; 1; 4; 5; 9 ] (Heap.to_sorted_list h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare in
  checkb "empty peek" true (Heap.peek h = None);
  checkb "empty pop" true (Heap.pop h = None);
  Heap.add h 3;
  Heap.add h 1;
  checkb "peek min" true (Heap.peek h = Some 1);
  checki "len" 2 (Heap.length h);
  checkb "pop min" true (Heap.pop h = Some 1);
  checkb "then next" true (Heap.pop h = Some 3)

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:compare [| 9; 2; 7; 2 |] in
  check (Alcotest.list Alcotest.int) "heapify" [ 2; 2; 7; 9 ] (Heap.to_sorted_list h)

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.add h) [ 1; 5; 3 ];
  check (Alcotest.list Alcotest.int) "max-heap" [ 5; 3; 1 ] (Heap.to_sorted_list h)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_running_moments () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.Running.count r);
  checkf "mean" 5.0 (Stats.Running.mean r);
  checkf "variance" (32.0 /. 7.0) (Stats.Running.variance r);
  checkf "min" 2.0 (Stats.Running.min r);
  checkf "max" 9.0 (Stats.Running.max r)

let test_running_single () =
  let r = Stats.Running.create () in
  Stats.Running.add r 3.0;
  checkf "variance of 1 obs" 0.0 (Stats.Running.variance r);
  checkf "stddev of 1 obs" 0.0 (Stats.Running.stddev r)

let test_percentiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p100" 5.0 (Stats.percentile xs 100.0);
  checkf "p50" 3.0 (Stats.percentile xs 50.0);
  checkf "p25" 2.0 (Stats.percentile xs 25.0);
  checkf "interpolated" 4.6 (Stats.percentile xs 90.0)

let test_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let test_percentile_nearest_rank () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  (* nearest rank always returns an observation, never an interpolation *)
  checkf "p0" 1.0 (Stats.percentile_nearest_rank xs 0.0);
  checkf "p50" 3.0 (Stats.percentile_nearest_rank xs 50.0);
  checkf "p90" 5.0 (Stats.percentile_nearest_rank xs 90.0);
  checkf "p100" 5.0 (Stats.percentile_nearest_rank xs 100.0);
  checkf "singleton" 7.0 (Stats.percentile_nearest_rank [| 7.0 |] 95.0);
  checkf "p95 of 1..100" 95.0
    (Stats.percentile_nearest_rank (Array.init 100 (fun i -> float_of_int (i + 1))) 95.0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile_nearest_rank: empty") (fun () ->
      ignore (Stats.percentile_nearest_rank [||] 50.0));
  Alcotest.check_raises "bad p"
    (Invalid_argument "Stats.percentile_nearest_rank: p outside [0,100]") (fun () ->
      ignore (Stats.percentile_nearest_rank [| 1.0 |] (-1.0)))

let test_stddev () =
  let stddev xs =
    let r = Stats.Running.create () in
    Array.iter (Stats.Running.add r) xs;
    Stats.Running.stddev r
  in
  checkf "constant" 0.0 (stddev [| 4.0; 4.0; 4.0 |]);
  (* sample (n-1) stddev of 2,4,6 is exactly 2 *)
  checkf "exact" 2.0 (stddev [| 2.0; 4.0; 6.0 |]);
  checkf "square root of the variance" (sqrt (32.0 /. 7.0))
    (stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_linear_fit_exact () =
  let slope, intercept = Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  checkf "slope" 2.0 slope;
  checkf "intercept" 1.0 intercept

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23" ];
  let s = Table.render t in
  checkb "contains header" true (contains_substring s "name");
  checkb "contains cell" true (contains_substring s "alpha");
  checkb "right-aligned value" true (contains_substring s "    1 |")

let test_table_row_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  check Alcotest.string "float" "3.142" (Table.fmt_float 3.14159);
  check Alcotest.string "float decimals" "3.1" (Table.fmt_float ~decimals:1 3.14159);
  check Alcotest.string "pct" "42.1%" (Table.fmt_pct 0.421)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* [Prng.int] as it was written before it skipped the limit division:
   compute the rejection limit, redraw at or above it, reduce. *)
let reference_int g bound =
  if bound land (bound - 1) = 0 then Prng.bits g land (bound - 1)
  else begin
    let max_int62 = (1 lsl 62) - 1 in
    let limit = max_int62 - (max_int62 mod bound) in
    let v = ref (Prng.bits g) in
    while !v >= limit do
      v := Prng.bits g
    done;
    !v mod bound
  end

(* Bounds 1, 2^k and 2^k +- 1 up to 2^61: near 2^61 about half the
   draws land above the fast path's cut and take the rejection loop. *)
let int_bound_gen =
  QCheck.Gen.(
    map2
      (fun k d -> max 1 ((1 lsl k) + d))
      (int_range 0 61)
      (oneofl [ -1; 0; 1 ]))

(* The shuffle kernel's specification: backward Fisher-Yates over
   [Prng.int], one draw per position. *)
let reference_shuffle_prefix g a len =
  for i = len - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* 0, 1, 2, powers of two and any length up to 70,000, with a tail the
   prefix shuffle must leave alone *)
let shuffle_case_gen =
  QCheck.Gen.(
    triple small_nat
      (oneof
         [
           oneofl [ 0; 1; 2 ];
           map (fun k -> 1 lsl k) (int_range 2 16);
           int_range 0 70_000;
         ])
      (oneof [ return 0; int_range 1 100 ]))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"prng: shuffle kernel is the Prng.int loop" ~count:200
      (make ~print:Print.(triple int int int) shuffle_case_gen)
      (fun (seed, len, tail) ->
        let a = Array.init (len + tail) (fun i -> (3 * i) + 1) in
        let b = Array.copy a in
        let g = Prng.create ~seed () and g' = Prng.create ~seed () in
        Prng.shuffle_prefix g a len;
        reference_shuffle_prefix g' b len;
        a = b
        && List.init 4 (fun _ -> Prng.bits g) = List.init 4 (fun _ -> Prng.bits g'));
    Test.make ~name:"prng: int is the two-division reference" ~count:500
      (pair small_int (make ~print:Print.(list int) Gen.(list_size (int_range 1 40) int_bound_gen)))
      (fun (seed, bounds) ->
        let g = Prng.create ~seed () and g' = Prng.create ~seed () in
        List.for_all (fun b -> Prng.int g b = reference_int g' b) bounds
        && Prng.int64 g = Prng.int64 g');
    Test.make ~name:"prng: int g b always in [0,b)" ~count:500
      (pair small_int (int_range 1 10_000))
      (fun (seed, bound) ->
        let g = Prng.create ~seed () in
        let v = Prng.int g bound in
        v >= 0 && v < bound);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair small_int (list_of_size Gen.(int_range 0 64) int))
      (fun (seed, l) ->
        let g = Prng.create ~seed () in
        let a = Array.of_list l in
        Sample.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare l);
    Test.make ~name:"shuffle_prefix is shuffle on the prefix" ~count:200
      (triple small_int (list_of_size Gen.(int_range 0 64) int) (int_range 0 64))
      (fun (seed, l, len) ->
        let a = Array.of_list l in
        let len = min len (Array.length a) in
        let whole = Array.copy a and prefix = Array.sub a 0 len in
        let g = Prng.create ~seed () and g' = Prng.create ~seed () in
        Sample.shuffle_prefix g whole ~len;
        Sample.shuffle g' prefix;
        Array.sub whole 0 len = prefix
        && Array.sub whole len (Array.length a - len)
           = Array.sub a len (Array.length a - len)
        && Prng.int g 1_000_000 = Prng.int g' 1_000_000);
    Test.make ~name:"heap drain is sorted" ~count:200
      (list_of_size Gen.(int_range 0 128) int)
      (fun l ->
        let h = Heap.of_array ~cmp:compare (Array.of_list l) in
        Heap.to_sorted_list h = List.sort compare l);
    Test.make ~name:"vec roundtrip" ~count:200
      (list_of_size Gen.(int_range 0 128) int)
      (fun l ->
        let v = Vec.create () in
        List.iter (Vec.push v) l;
        Vec.to_list v = l);
    Test.make ~name:"vec filter_in_place is List.filter, in place" ~count:300
      (triple
         (list_of_size Gen.(int_range 0 96) small_int)
         (int_range 1 5) (int_range 0 4))
      (fun (l, k, r) ->
        let keep x = x mod k = r mod k in
        let v = Vec.create () in
        List.iter (Vec.push v) l;
        let seen = ref [] in
        Vec.filter_in_place
          (fun x ->
            seen := x :: !seen;
            keep x)
          v;
        let kept = List.filter keep l in
        let len = List.length kept in
        let stale =
          match Vec.get v len with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        (* a push lands right after the kept prefix, over the dropped tail *)
        Vec.push v (-1);
        List.rev !seen = l
        && stale
        && Vec.length v = len + 1
        && Vec.to_list v = kept @ [ -1 ]);
    Test.make ~name:"bitset add/mem agree with a reference set" ~count:200
      (list_of_size Gen.(int_range 0 64) (int_range 0 255))
      (fun l ->
        let b = Bitset.create 256 in
        List.iter (Bitset.add b) l;
        let module S = Set.Make (Int) in
        let s = S.of_list l in
        Bitset.cardinal b = S.cardinal s
        && List.for_all (fun i -> Bitset.mem b i = S.mem i s) (List.init 256 Fun.id));
    Test.make ~name:"percentile is within data range" ~count:200
      (pair (list_of_size Gen.(int_range 1 64) (float_range (-100.) 100.)) (float_range 0. 100.))
      (fun (l, p) ->
        let xs = Array.of_list l in
        let v = Stats.percentile xs p in
        let lo = List.fold_left min infinity l and hi = List.fold_left max neg_infinity l in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"categorical draw index in range" ~count:200
      (pair small_int (list_of_size Gen.(int_range 1 32) (float_range 0.01 10.0)))
      (fun (seed, ws) ->
        let g = Prng.create ~seed () in
        let cat = Sample.Categorical.create (Array.of_list ws) in
        let i = Sample.Categorical.draw g cat in
        i >= 0 && i < List.length ws);
    Test.make ~name:"choose_distinct yields distinct in-range values" ~count:200
      (pair small_int (pair (int_range 1 64) (int_range 0 64)))
      (fun (seed, (n, k)) ->
        QCheck.assume (k <= n);
        let g = Prng.create ~seed () in
        let a = Sample.choose_distinct g ~n ~k in
        let module S = Set.Make (Int) in
        let s = S.of_list (Array.to_list a) in
        S.cardinal s = k && S.for_all (fun x -> x >= 0 && x < n) s);
  ]

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy independence" `Quick test_prng_copy_independence;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int pow2 bounds" `Quick test_prng_int_pow2;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "accept edges" `Quick test_prng_accept_edges;
        Alcotest.test_case "shuffle kernel allocates nothing" `Quick
          test_shuffle_kernel_allocates_nothing;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "split independence" `Quick test_prng_split_independence;
        Alcotest.test_case "jump_to_stream stable" `Quick test_prng_jump_stable;
        Alcotest.test_case "pinned streams" `Quick test_prng_pinned_streams;
      ] );
    ( "util.sample",
      [
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "choose_distinct" `Quick test_choose_distinct;
        Alcotest.test_case "choose_distinct full" `Quick test_choose_distinct_full;
        Alcotest.test_case "choose_distinct invalid" `Quick test_choose_distinct_invalid;
        Alcotest.test_case "categorical frequencies" `Quick test_categorical_matches_weights;
        Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
        Alcotest.test_case "zipf pmf normalised" `Quick test_zipf_pmf_sums_to_one;
        Alcotest.test_case "zipf pmf monotone" `Quick test_zipf_monotone;
        Alcotest.test_case "zipf draw skew" `Quick test_zipf_draw_skew;
        Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
        Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "push/get" `Quick test_vec_push_get;
        Alcotest.test_case "clear and reuse" `Quick test_vec_clear_reuse;
        Alcotest.test_case "ensure_capacity" `Quick test_vec_ensure_capacity;
        Alcotest.test_case "bounds checking" `Quick test_vec_bounds;
        Alcotest.test_case "conversions" `Quick test_vec_conversions;
      ] );
    ("util.int_array", [ Alcotest.test_case "mem" `Quick test_int_array_mem ]);
    ( "util.bitset",
      [
        Alcotest.test_case "basic ops" `Quick test_bitset_basic;
        Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
        Alcotest.test_case "of_array" `Quick test_heap_of_array;
        Alcotest.test_case "custom order" `Quick test_heap_custom_order;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "running moments" `Quick test_running_moments;
        Alcotest.test_case "running single obs" `Quick test_running_single;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "percentile invalid" `Quick test_percentile_invalid;
        Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "linear fit" `Quick test_linear_fit_exact;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
        Alcotest.test_case "formats" `Quick test_table_formats;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
