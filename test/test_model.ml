(* Tests for vod_model: parameters, boxes/fleets, catalog and allocation
   invariants. *)

open Vod_model

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_make () =
  let p = Params.make ~n:100 ~c:4 ~mu:1.5 ~duration:50 in
  checki "n" 100 p.Params.n;
  checkf "stripe rate" 0.25 (Params.stripe_rate p)

let test_params_invalid () =
  Alcotest.check_raises "n" (Invalid_argument "Params.make: n must be >= 1") (fun () ->
      ignore (Params.make ~n:0 ~c:1 ~mu:1.0 ~duration:1));
  Alcotest.check_raises "mu" (Invalid_argument "Params.make: mu must be >= 1.0") (fun () ->
      ignore (Params.make ~n:1 ~c:1 ~mu:0.5 ~duration:1));
  Alcotest.check_raises "mu nan" (Invalid_argument "Params.make: mu must be finite")
    (fun () -> ignore (Params.make ~n:1 ~c:1 ~mu:Float.nan ~duration:1))

let test_upload_slots () =
  let p = Params.make ~n:10 ~c:4 ~mu:1.0 ~duration:10 in
  (* u = 1.0 -> 4 slots; u = 1.3 -> floor 5.2 = 5; u = 0.75 -> 3 *)
  checki "u=1" 4 (Params.upload_slots p 1.0);
  checki "u=1.3" 5 (Params.upload_slots p 1.3);
  checki "u=0.75" 3 (Params.upload_slots p 0.75);
  checki "u=0" 0 (Params.upload_slots p 0.0);
  (* float-representation robustness: 0.7*10 = 6.999... must be 7 *)
  let p10 = Params.make ~n:10 ~c:10 ~mu:1.0 ~duration:10 in
  checki "u=0.7 c=10" 7 (Params.upload_slots p10 0.7)

let test_effective_upload () =
  let p = Params.make ~n:10 ~c:4 ~mu:1.0 ~duration:10 in
  checkf "u'=floor(uc)/c" 1.25 (Params.effective_upload p 1.3)

(* ------------------------------------------------------------------ *)
(* Box / Fleet                                                         *)
(* ------------------------------------------------------------------ *)

let test_box_make_invalid () =
  Alcotest.check_raises "neg upload" (Invalid_argument "Box.make: negative upload")
    (fun () -> ignore (Box.make ~id:0 ~upload:(-1.0) ~storage:1.0));
  List.iter
    (fun (upload, storage) ->
      Alcotest.check_raises "non-finite"
        (Invalid_argument "Box.make: non-finite capacity") (fun () ->
          ignore (Box.make ~id:0 ~upload ~storage)))
    [ (Float.nan, 1.0); (Float.infinity, 1.0); (1.0, Float.nan) ]

let test_storage_slots () =
  let b = Box.make ~id:0 ~upload:1.0 ~storage:2.5 in
  checki "2.5 videos x 4 stripes" 10 (Box.storage_slots ~c:4 b)

let test_fleet_homogeneous () =
  let f = Box.Fleet.homogeneous ~n:10 ~u:1.5 ~d:3.0 in
  checki "size" 10 (Array.length f);
  checkf "avg u" 1.5 (Box.Fleet.average_upload f);
  checkf "avg d" 3.0 (Box.Fleet.average_storage f);
  Array.iteri (fun i b -> checki "ids sequential" i b.Box.id) f

let test_fleet_two_class () =
  let f = Box.Fleet.two_class ~n:10 ~rich_fraction:0.3 ~u_rich:2.0 ~u_poor:0.5 ~d:2.0 in
  checki "3 rich" 3 (List.length (Box.Fleet.rich_boxes f ~threshold:1.0));
  checki "7 poor" 7 (List.length (Box.Fleet.poor_boxes f ~threshold:1.0));
  (* deficit wrt 1.0: 7 poor boxes each missing 0.5 *)
  checkf "deficit" 3.5 (Box.Fleet.upload_deficit f ~threshold:1.0)

let test_fleet_proportional () =
  let f = Box.Fleet.proportional ~n:3 ~uploads:[| 1.0; 2.0; 4.0 |] ~ratio:2.0 in
  checkf "d = 2u" 4.0 f.(1).Box.storage;
  (* proportional fleets with ratio >= 2 are storage balanced for
     u_star <= avg d / ratio *)
  checkb "storage balanced" true (Box.Fleet.is_storage_balanced f ~threshold:1.5)

let test_fleet_dsl_mix () =
  let g = Vod_util.Prng.create ~seed:3 () in
  let f = Box.Fleet.dsl_mix g ~n:1000 ~d:4.0 in
  let u = Box.Fleet.average_upload f in
  (* expected mean = 0.25*0.25 + 0.5*0.35 + 1*0.25 + 2*0.15 = 0.7875 *)
  checkb "plausible mean upload" true (Float.abs (u -. 0.7875) < 0.1);
  Array.iter
    (fun b -> checkb "class values" true (List.mem b.Box.upload [ 0.25; 0.5; 1.0; 2.0 ]))
    f

let test_storage_balance_violation () =
  (* d_b/u_b = 1 < 2 violates the balance condition *)
  let f = Box.Fleet.homogeneous ~n:4 ~u:2.0 ~d:2.0 in
  checkb "unbalanced" false (Box.Fleet.is_storage_balanced f ~threshold:1.0)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog_ids () =
  let cat = Catalog.create ~m:5 ~c:3 in
  checki "total" 15 (Catalog.total_stripes cat);
  checki "id" 7 (Catalog.stripe_id cat ~video:2 ~index:1);
  checki "video of" 2 (Catalog.video_of_stripe cat 7);
  checki "index of" 1 (Catalog.index_of_stripe cat 7);
  Alcotest.check (Alcotest.array Alcotest.int) "stripes of video" [| 6; 7; 8 |]
    (Catalog.stripes_of_video cat 2)

let test_catalog_roundtrip () =
  let cat = Catalog.create ~m:7 ~c:4 in
  for s = 0 to Catalog.total_stripes cat - 1 do
    let v = Catalog.video_of_stripe cat s and i = Catalog.index_of_stripe cat s in
    checki "roundtrip" s (Catalog.stripe_id cat ~video:v ~index:i)
  done

let test_catalog_invalid () =
  let cat = Catalog.create ~m:2 ~c:2 in
  Alcotest.check_raises "video range" (Invalid_argument "Catalog.stripe_id: video out of range")
    (fun () -> ignore (Catalog.stripe_id cat ~video:2 ~index:0));
  Alcotest.check_raises "stripe range" (Invalid_argument "Catalog: stripe id out of range")
    (fun () -> ignore (Catalog.video_of_stripe cat 4))

let test_catalog_empty () =
  let cat = Catalog.create ~m:0 ~c:3 in
  checki "no stripes" 0 (Catalog.total_stripes cat)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let tiny_allocation () =
  (* 2 videos x 2 stripes on 3 boxes *)
  let cat = Catalog.create ~m:2 ~c:2 in
  Allocation.of_replica_lists ~catalog:cat ~n_boxes:3
    [| [| 0; 1 |]; [| 1 |]; [| 2 |]; [| 0; 2 |] |]

let test_allocation_queries () =
  let a = tiny_allocation () in
  checki "replicas of stripe 0" 2 (Allocation.replica_count a 0);
  checkb "possesses" true (Allocation.possesses a ~box:1 ~stripe:0);
  checkb "not possesses" false (Allocation.possesses a ~box:2 ~stripe:0);
  checki "box 0 load" 2 (Allocation.box_load a 0);
  Alcotest.check (Alcotest.array Alcotest.int) "stripes of box 2" [| 2; 3 |]
    (Alloc_rows.stripes_of_box a 2)

let test_allocation_videos_not_stored () =
  let a = tiny_allocation () in
  (* box 1 stores only stripe 0 (video 0): video 1 missing *)
  Alcotest.check (Alcotest.list Alcotest.int) "box 1 missing" [ 1 ]
    (Allocation.videos_not_stored a ~box:1);
  (* box 0 stores stripes 0 (video 0) and 3 (video 1): nothing missing *)
  Alcotest.check (Alcotest.list Alcotest.int) "box 0 missing" []
    (Allocation.videos_not_stored a ~box:0);
  checkb "stores_video" true (Allocation.stores_video a ~box:0 ~video:1)

let test_allocation_duplicate_rejected () =
  let cat = Catalog.create ~m:1 ~c:1 in
  Alcotest.check_raises "dup"
    (Invalid_argument "Allocation.of_replica_lists: duplicate replica in one box")
    (fun () -> ignore (Allocation.of_replica_lists ~catalog:cat ~n_boxes:2 [| [| 0; 0 |] |]))

let test_allocation_out_of_range () =
  let cat = Catalog.create ~m:1 ~c:1 in
  Alcotest.check_raises "box range"
    (Invalid_argument "Allocation.of_replica_lists: box out of range") (fun () ->
      ignore (Allocation.of_replica_lists ~catalog:cat ~n_boxes:2 [| [| 2 |] |]))

let test_allocation_validate () =
  let a = tiny_allocation () in
  let fleet = Box.Fleet.homogeneous ~n:3 ~u:1.0 ~d:1.0 in
  (* d=1 video = 2 slots per box: box 0 holds 2 -> ok *)
  checkb "valid" true (Allocation.validate a ~fleet ~c:2 = Ok ());
  let starved = Box.Fleet.homogeneous ~n:3 ~u:1.0 ~d:0.5 in
  (* 1 slot per box but box 0 stores 2 *)
  checkb "overflow detected" true (Allocation.validate a ~fleet:starved ~c:2 <> Ok ())

let test_allocation_missing_replica () =
  let cat = Catalog.create ~m:1 ~c:2 in
  let a = Allocation.of_replica_lists ~catalog:cat ~n_boxes:2 [| [| 0 |]; [||] |] in
  let fleet = Box.Fleet.homogeneous ~n:2 ~u:1.0 ~d:2.0 in
  checkb "missing replica flagged" true (Allocation.validate a ~fleet ~c:2 <> Ok ())

let test_allocation_utilisation () =
  let a = tiny_allocation () in
  let fleet = Box.Fleet.homogeneous ~n:3 ~u:1.0 ~d:1.0 in
  (* 6 replicas... actually 2+1+1+2 = 6 replicas, 3 boxes x 2 slots = 6 *)
  checkf "utilisation" 1.0 (Allocation.storage_utilisation a ~fleet ~c:2)

(* The array-of-arrays reference the flat rows are checked against:
   each stripe's boxes in placement order and ascending, and each box's
   stripes ascending, as plain arrays.  An install appends to the
   placement row and inserts into the two ascending ones. *)
type reference = {
  placed : int array array;
  sorted : int array array;
  boxes : int array array;
}

let reference_of a =
  let total = Catalog.total_stripes (Allocation.catalog a) in
  {
    placed = Array.init total (Alloc_rows.boxes_of_stripe a);
    sorted = Array.init total (Alloc_rows.sorted_boxes_of_stripe a);
    boxes = Array.init (Allocation.n_boxes a) (Alloc_rows.stripes_of_box a);
  }

let insert_ascending row x = Array.of_list (List.sort compare (x :: Array.to_list row))

(* [r] with the pairs installed, or [None] where [add_replicas] must
   raise (a stripe or box out of range, or a pair already held). *)
let reference_install r pairs =
  let r =
    { placed = Array.copy r.placed; sorted = Array.copy r.sorted; boxes = Array.copy r.boxes }
  in
  let total = Array.length r.placed and n = Array.length r.boxes in
  let ok (s, b) =
    s >= 0 && s < total && b >= 0 && b < n && not (Array.mem b r.placed.(s))
  in
  if
    List.for_all
      (fun (s, b) ->
        ok (s, b)
        && begin
             r.placed.(s) <- Array.append r.placed.(s) [| b |];
             r.sorted.(s) <- insert_ascending r.sorted.(s) b;
             r.boxes.(b) <- insert_ascending r.boxes.(b) s;
             true
           end)
      pairs
  then Some r
  else None

(* Every row of both stripe orders and of the boxes, and membership. *)
let matches a r =
  let total = Array.length r.placed and n = Array.length r.boxes in
  Allocation.n_boxes a = n
  && List.for_all
       (fun s ->
         Alloc_rows.boxes_of_stripe a s = r.placed.(s)
         && Alloc_rows.sorted_boxes_of_stripe a s = r.sorted.(s)
         && Allocation.replica_count a s = Array.length r.placed.(s)
         && List.for_all
              (fun box ->
                Allocation.possesses a ~box ~stripe:s = Array.mem box r.placed.(s))
              (List.init n Fun.id))
       (List.init total Fun.id)
  && List.for_all
       (fun b ->
         Alloc_rows.stripes_of_box a b = r.boxes.(b)
         && Allocation.box_load a b = Array.length r.boxes.(b))
       (List.init n Fun.id)

let test_add_replicas_cases () =
  let a = tiny_allocation () in
  let before = reference_of a in
  Allocation.add_replicas a [ (1, 0); (1, 2); (2, 0) ];
  checkb "stripe row appended in order" true
    (Alloc_rows.boxes_of_stripe a 1 = [| 1; 0; 2 |]);
  checkb "sorted stripe row stays ascending" true
    (Alloc_rows.sorted_boxes_of_stripe a 1 = [| 0; 1; 2 |]);
  checkb "box rows stay ascending" true
    (Alloc_rows.stripes_of_box a 0 = [| 0; 1; 2; 3 |]
    && Alloc_rows.stripes_of_box a 2 = [| 1; 2; 3 |]);
  checkb "equals the reference" true
    (match reference_install before [ (1, 0); (1, 2); (2, 0) ] with
    | Some r -> matches a r
    | None -> false);
  let installed = reference_of a in
  Allocation.add_replicas a [];
  checkb "an empty batch changes nothing" true (matches a installed);
  let copy = Allocation.copy a in
  Allocation.add_replicas copy [ (0, 2) ];
  checkb "a copy's installs leave the source alone" true
    (matches a installed && Allocation.possesses copy ~box:2 ~stripe:0);
  let raises name msg pairs =
    Alcotest.check_raises name (Invalid_argument ("Allocation.add_replicas: " ^ msg))
      (fun () -> Allocation.add_replicas a pairs);
    checkb (name ^ ": nothing installed") true (matches a installed)
  in
  raises "duplicate pair in one batch" "duplicate replica in one box" [ (0, 2); (0, 2) ];
  raises "already held" "duplicate replica in one box" [ (0, 1) ];
  raises "stripe above range" "stripe out of range" [ (0, 2); (4, 0) ];
  raises "negative stripe" "stripe out of range" [ (-1, 0) ];
  raises "box above range" "box out of range" [ (0, 3) ];
  raises "negative box" "box out of range" [ (0, 2); (1, -1) ]

(* Random install sequences on permutation allocations of small
   homogeneous, two-class and proportional fleets.  A third of the pairs
   go to two hot stripes and two hot boxes, so rows outgrow their
   packed slots and then their tail blocks several times over; the rest
   are spread, and one in ten reaches one past either end.  After every
   batch the flat rows equal the reference's, or the batch raised and
   changed nothing. *)
let installs_qcheck =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 1_000_000 and* n = int_range 2 40 and* c = int_range 1 3 in
      let* k = int_range 1 3 and* kind = int_range 0 2 in
      let* uploads = array_size (return n) (float_range 0.5 3.0) in
      let fleet =
        match kind with
        | 0 -> Box.Fleet.homogeneous ~n ~u:1.5 ~d:4.0
        | 1 -> Box.Fleet.two_class ~n ~rich_fraction:0.25 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0
        | _ -> Box.Fleet.proportional ~n ~uploads ~ratio:2.0
      in
      (* k = 1 fits every fleet here: each box stores at least c slots *)
      let k = if Vod_alloc.Schemes.max_catalog ~fleet ~c ~k < 1 then 1 else k in
      let m = max 1 (Vod_alloc.Schemes.max_catalog ~fleet ~c ~k / 2) in
      let total = m * c in
      let spread = pair (int_bound (total - 1)) (int_bound (n - 1)) in
      let hot = pair (int_bound (min 1 (total - 1))) (int_bound (n - 1)) in
      let hot_box = pair (int_bound (total - 1)) (int_bound (min 1 (n - 1))) in
      let wild = pair (int_range (-1) total) (int_range (-1) n) in
      let pair = frequency [ (6, spread); (2, hot); (1, hot_box); (1, wild) ] in
      let* batches = list_size (int_range 1 12) (list_size (int_range 0 8) pair) in
      return (seed, kind, fleet, m, c, k, batches))
  in
  let print (seed, kind, fleet, m, c, k, batches) =
    Printf.sprintf "seed %d fleet %d n %d m %d c %d k %d batches %s" seed kind
      (Array.length fleet) m c k
      (String.concat " | "
         (List.map
            (fun b ->
              String.concat " " (List.map (fun (s, x) -> Printf.sprintf "%d:%d" s x) b))
            batches))
  in
  Test.make ~name:"installs equal the array-of-arrays reference" ~count:300
    (make ~print gen) (fun (seed, _, fleet, m, c, k, batches) ->
      let catalog = Catalog.create ~m ~c in
      let a =
        Vod_alloc.Schemes.random_permutation (Vod_util.Prng.create ~seed ()) ~fleet
          ~catalog ~k
      in
      let r = ref (reference_of a) in
      List.for_all
        (fun pairs ->
          let raised =
            match Allocation.add_replicas a pairs with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          (match reference_install !r pairs with
          | Some r' when not raised -> r := r'
          | None when raised -> ()
          | _ -> Test.fail_reportf "add_replicas raised %b against the reference" raised);
          matches a !r)
        batches)

let suites =
  [
    ( "model.params",
      [
        Alcotest.test_case "make" `Quick test_params_make;
        Alcotest.test_case "invalid" `Quick test_params_invalid;
        Alcotest.test_case "upload slots" `Quick test_upload_slots;
        Alcotest.test_case "effective upload" `Quick test_effective_upload;
      ] );
    ( "model.box",
      [
        Alcotest.test_case "invalid" `Quick test_box_make_invalid;
        Alcotest.test_case "storage slots" `Quick test_storage_slots;
        Alcotest.test_case "homogeneous fleet" `Quick test_fleet_homogeneous;
        Alcotest.test_case "two-class fleet" `Quick test_fleet_two_class;
        Alcotest.test_case "proportional fleet" `Quick test_fleet_proportional;
        Alcotest.test_case "dsl mix" `Quick test_fleet_dsl_mix;
        Alcotest.test_case "storage balance violation" `Quick test_storage_balance_violation;
      ] );
    ( "model.catalog",
      [
        Alcotest.test_case "ids" `Quick test_catalog_ids;
        Alcotest.test_case "roundtrip" `Quick test_catalog_roundtrip;
        Alcotest.test_case "invalid" `Quick test_catalog_invalid;
        Alcotest.test_case "empty" `Quick test_catalog_empty;
      ] );
    ( "model.allocation",
      [
        Alcotest.test_case "queries" `Quick test_allocation_queries;
        Alcotest.test_case "videos_not_stored" `Quick test_allocation_videos_not_stored;
        Alcotest.test_case "duplicate rejected" `Quick test_allocation_duplicate_rejected;
        Alcotest.test_case "out of range" `Quick test_allocation_out_of_range;
        Alcotest.test_case "validate" `Quick test_allocation_validate;
        Alcotest.test_case "missing replica" `Quick test_allocation_missing_replica;
        Alcotest.test_case "utilisation" `Quick test_allocation_utilisation;
        Alcotest.test_case "add_replicas cases" `Quick test_add_replicas_cases;
        QCheck_alcotest.to_alcotest installs_qcheck;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_uniform () =
  let t = Topology.uniform_groups ~n:10 ~groups:3 in
  checki "n" 10 (Topology.n t);
  checki "groups" 3 (Topology.groups t);
  checki "box 0" 0 (Topology.group_of t 0);
  checki "box 4" 1 (Topology.group_of t 4);
  checkb "same group" true (Topology.same_group t 0 3);
  checkb "different group" false (Topology.same_group t 0 1);
  checki "cost inside" 0 (Topology.cost t 0 3);
  checki "cost across" 1 (Topology.cost t 0 1)

let test_topology_members_partition () =
  let t = Topology.uniform_groups ~n:12 ~groups:4 in
  let all = List.concat_map (fun g -> Topology.group_members t g) [ 0; 1; 2; 3 ] in
  checki "partition covers all boxes" 12 (List.length (List.sort_uniq compare all))

let test_topology_invalid () =
  Alcotest.check_raises "groups > n" (Invalid_argument "Topology: groups must be in [1, n]")
    (fun () -> ignore (Topology.uniform_groups ~n:3 ~groups:4));
  let t = Topology.uniform_groups ~n:3 ~groups:1 in
  Alcotest.check_raises "box range" (Invalid_argument "Topology.group_of: box out of range")
    (fun () -> ignore (Topology.group_of t 3))

let topology_suite =
  ( "model.topology",
    [
      Alcotest.test_case "uniform groups" `Quick test_topology_uniform;
      Alcotest.test_case "members partition" `Quick test_topology_members_partition;
      Alcotest.test_case "invalid args" `Quick test_topology_invalid;
    ] )

let suites = suites @ [ topology_suite ]
