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
    (Allocation.stripes_of_box a 2)

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

(* [add_replicas] against the rebuild it replaces in the repair
   controller: append each pair's box to its stripe's row, then
   [of_replica_lists].  [None] where the rebuild rejects the rows. *)
let rebuilt_with a pairs =
  let catalog = Allocation.catalog a and n_boxes = Allocation.n_boxes a in
  let total = Catalog.total_stripes catalog in
  let rows = Array.init total (Allocation.boxes_of_stripe a) in
  match
    List.iter
      (fun (s, b) ->
        if s < 0 || s >= total then invalid_arg "stripe out of range";
        rows.(s) <- Array.append rows.(s) [| b |])
      pairs;
    Allocation.of_replica_lists ~catalog ~n_boxes rows
  with
  | a' -> Some a'
  | exception Invalid_argument _ -> None

(* Row for row: both directions of the incidence, loads and membership. *)
let same_allocation a b =
  let n = Allocation.n_boxes a in
  let stripes = List.init (Catalog.total_stripes (Allocation.catalog a)) Fun.id in
  let boxes = List.init n Fun.id in
  n = Allocation.n_boxes b
  && List.for_all
       (fun s -> Allocation.boxes_of_stripe a s = Allocation.boxes_of_stripe b s)
       stripes
  && List.for_all
       (fun x ->
         Allocation.stripes_of_box a x = Allocation.stripes_of_box b x
         && Allocation.box_load a x = Allocation.box_load b x)
       boxes
  && List.for_all
       (fun s ->
         List.for_all
           (fun box ->
             Allocation.possesses a ~box ~stripe:s
             = Allocation.possesses b ~box ~stripe:s)
           boxes)
       stripes
  && List.for_all
       (fun s ->
         let sorted = Allocation.sorted_boxes_of_stripe a s in
         sorted = Allocation.sorted_boxes_of_stripe b s
         && Array.to_list sorted
            = List.sort compare (Array.to_list (Allocation.boxes_of_stripe a s)))
       stripes

let test_add_replicas_cases () =
  let a = tiny_allocation () in
  let a' = Allocation.add_replicas a [ (1, 0); (1, 2); (2, 0) ] in
  checkb "stripe row appended in order" true
    (Allocation.boxes_of_stripe a' 1 = [| 1; 0; 2 |]);
  checkb "sorted stripe row stays ascending" true
    (Allocation.sorted_boxes_of_stripe a' 1 = [| 0; 1; 2 |]);
  checkb "box rows stay ascending" true
    (Allocation.stripes_of_box a' 0 = [| 0; 1; 2; 3 |]
    && Allocation.stripes_of_box a' 2 = [| 1; 2; 3 |]);
  checkb "equals the rebuild" true
    (match rebuilt_with a [ (1, 0); (1, 2); (2, 0) ] with
    | Some r -> same_allocation a' r
    | None -> false);
  checkb "the source allocation is unchanged" true
    (same_allocation a (tiny_allocation ()));
  checkb "an empty batch changes nothing" true
    (same_allocation a (Allocation.add_replicas a []));
  let raises name msg pairs =
    Alcotest.check_raises name (Invalid_argument ("Allocation.add_replicas: " ^ msg))
      (fun () -> ignore (Allocation.add_replicas a pairs))
  in
  raises "duplicate pair in one batch" "duplicate replica in one box" [ (1, 0); (1, 0) ];
  raises "already held" "duplicate replica in one box" [ (0, 1) ];
  raises "stripe above range" "stripe out of range" [ (4, 0) ];
  raises "negative stripe" "stripe out of range" [ (-1, 0) ];
  raises "box above range" "box out of range" [ (0, 3) ];
  raises "negative box" "box out of range" [ (1, -1) ]

let add_replicas_qcheck =
  let open QCheck in
  let gen =
    Gen.(
      let* n = int_range 1 6 and* m = int_range 1 3 and* c = int_range 1 2 in
      (* distinct boxes per stripe, in any order *)
      let row =
        let* boxes = shuffle_l (List.init n Fun.id) and* k = int_range 0 (min n 3) in
        return (Array.of_list (List.filteri (fun i _ -> i < k) boxes))
      in
      let* rows = array_repeat (m * c) row in
      (* mostly in range; the rest reach one past each end *)
      let in_range = pair (int_bound ((m * c) - 1)) (int_bound (n - 1)) in
      let wild = pair (int_range (-1) (m * c)) (int_range (-1) n) in
      let* pairs = list_size (int_range 0 5) (frequency [ (9, in_range); (1, wild) ]) in
      return (n, m, c, rows, pairs))
  in
  Test.make ~name:"add_replicas equals of_replica_lists on the appended rows" ~count:300
    (make gen) (fun (n, m, c, rows, pairs) ->
      let catalog = Catalog.create ~m ~c in
      let a = Allocation.of_replica_lists ~catalog ~n_boxes:n rows in
      let added =
        try Some (Allocation.add_replicas a pairs) with Invalid_argument _ -> None
      in
      match (rebuilt_with a pairs, added) with
      | Some r, Some a' -> same_allocation r a'
      | None, None -> true
      | _ -> false)

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
        QCheck_alcotest.to_alcotest add_replicas_qcheck;
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
