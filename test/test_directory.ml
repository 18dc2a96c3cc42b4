(* Tests for the Chord-style directory substrate: ring routing
   correctness, O(log n) hop counts, publish/resolve semantics and
   membership changes. *)

open Vod_util
module Ring = Vod_directory.Ring
module Directory = Vod_directory.Directory

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let nodes n = List.init n (fun i -> i)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_create_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Ring.create: empty node list")
    (fun () -> ignore (Ring.create ~nodes:[]));
  Alcotest.check_raises "dup" (Invalid_argument "Ring.create: duplicate node") (fun () ->
      ignore (Ring.create ~nodes:[ 1; 2; 1 ]))

let test_ring_members_sorted_by_position () =
  let r = Ring.create ~nodes:(nodes 20) in
  let ms = Ring.members r in
  checki "all present" 20 (List.length ms);
  let positions = List.map (Ring.node_position r) ms in
  checkb "ring order" true (List.sort compare positions = positions)

(* brute-force owner: smallest position >= key, else global smallest *)
let naive_owner r key =
  let key_pos = Ring.hash_key key in
  let ms = Ring.members r in
  let annotated = List.map (fun b -> (Ring.node_position r b, b)) ms in
  let sorted = List.sort compare annotated in
  match List.find_opt (fun (p, _) -> p >= key_pos) sorted with
  | Some (_, b) -> b
  | None -> snd (List.hd sorted)

let test_successor_matches_naive () =
  let r = Ring.create ~nodes:(nodes 33) in
  for key = 0 to 200 do
    checki
      (Printf.sprintf "owner of key %d" key)
      (naive_owner r key)
      (Ring.successor_of_key r key)
  done

let test_lookup_finds_owner_from_any_origin () =
  let r = Ring.create ~nodes:(nodes 25) in
  for key = 0 to 60 do
    List.iter
      (fun origin ->
        let found, hops = Ring.lookup r ~origin ~key in
        checki "correct owner" (Ring.successor_of_key r key) found;
        checkb "hops sane" true (hops >= 0 && hops < 25))
      [ 0; 7; 24 ]
  done

let test_lookup_zero_hops_when_local () =
  let r = Ring.create ~nodes:(nodes 8) in
  (* for each node, find a key it owns; looking it up from itself is free *)
  List.iter
    (fun b ->
      let rec find_key k =
        if k > 10_000 then None
        else if Ring.successor_of_key r k = b then Some k
        else find_key (k + 1)
      in
      match find_key 0 with
      | None -> () (* node owns no small key; fine *)
      | Some key ->
          let _, hops = Ring.lookup r ~origin:b ~key in
          checki "self lookup free" 0 hops)
    (Ring.members r)

let test_lookup_logarithmic_hops () =
  (* average hops must grow like log2 n, not n *)
  let avg_hops n =
    let r = Ring.create ~nodes:(nodes n) in
    let g = Prng.create ~seed:3 () in
    let total = ref 0 and count = 200 in
    for _ = 1 to count do
      let origin = Prng.int g n and key = Prng.int g 1_000_000 in
      let _, hops = Ring.lookup r ~origin ~key in
      total := !total + hops
    done;
    float_of_int !total /. float_of_int count
  in
  let h256 = avg_hops 256 and h1024 = avg_hops 1024 in
  checkb (Printf.sprintf "256 nodes ~ log (got %.1f)" h256) true (h256 <= 12.0);
  checkb (Printf.sprintf "1024 nodes ~ log (got %.1f)" h1024) true (h1024 <= 16.0);
  (* quadrupling n adds ~2 hops, nothing like 4x *)
  checkb "sub-linear growth" true (h1024 -. h256 < 6.0)

let test_join_leave_consistency () =
  let r = Ring.create ~nodes:(nodes 10) in
  let r = Ring.join r 99 in
  checki "grew" 11 (List.length (Ring.members r));
  checkb "member" true (List.mem 99 (Ring.members r));
  let r = Ring.leave r 99 in
  checki "shrank" 10 (List.length (Ring.members r));
  Alcotest.check_raises "double leave" (Invalid_argument "Ring.leave: node absent")
    (fun () -> ignore (Ring.leave r 99))

let test_ownership_shifts_only_locally_on_join () =
  (* consistent hashing: adding a node only moves keys into the new
     node, never between old nodes *)
  let r = Ring.create ~nodes:(nodes 16) in
  let r' = Ring.join r 777 in
  for key = 0 to 300 do
    let before = Ring.successor_of_key r key and after = Ring.successor_of_key r' key in
    checkb "only the newcomer gains keys" true (after = before || after = 777)
  done

(* ------------------------------------------------------------------ *)
(* Directory                                                           *)
(* ------------------------------------------------------------------ *)

let test_publish_resolve_roundtrip () =
  let d = Directory.create ~nodes:(nodes 12) in
  ignore (Directory.publish d ~origin:0 ~stripe:42 ~holder:3);
  ignore (Directory.publish d ~origin:5 ~stripe:42 ~holder:7);
  let holders, _ = Directory.resolve d ~origin:11 ~stripe:42 in
  checkb "both holders" true
    (List.sort compare holders = [ 3; 7 ]);
  let missing, _ = Directory.resolve d ~origin:2 ~stripe:43 in
  checkb "unknown stripe empty" true (missing = [])

let test_publish_idempotent () =
  let d = Directory.create ~nodes:(nodes 6) in
  ignore (Directory.publish d ~origin:0 ~stripe:1 ~holder:2);
  ignore (Directory.publish d ~origin:3 ~stripe:1 ~holder:2);
  let holders, _ = Directory.resolve d ~origin:1 ~stripe:1 in
  checki "single registration" 1 (List.length holders)

let test_unpublish () =
  let d = Directory.create ~nodes:(nodes 6) in
  ignore (Directory.publish d ~origin:0 ~stripe:9 ~holder:1);
  ignore (Directory.publish d ~origin:0 ~stripe:9 ~holder:2);
  ignore (Directory.unpublish d ~origin:4 ~stripe:9 ~holder:1);
  let holders, _ = Directory.resolve d ~origin:0 ~stripe:9 in
  checkb "one left" true (holders = [ 2 ]);
  ignore (Directory.unpublish d ~origin:4 ~stripe:9 ~holder:2);
  let holders, _ = Directory.resolve d ~origin:0 ~stripe:9 in
  checkb "gone" true (holders = [])

let test_publish_allocation_and_resolve_all () =
  let g = Prng.create ~seed:5 () in
  let n = 16 in
  let fleet = Vod_model.Box.Fleet.homogeneous ~n ~u:1.5 ~d:4.0 in
  let catalog = Vod_model.Catalog.create ~m:12 ~c:2 in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:3 in
  let d = Directory.create ~nodes:(nodes n) in
  Directory.publish_allocation d
    ~iter_holders:(Vod_model.Allocation.iter_holders alloc)
    ~total_stripes:(Vod_model.Catalog.total_stripes catalog);
  for s = 0 to Vod_model.Catalog.total_stripes catalog - 1 do
    let holders, _ = Directory.resolve d ~origin:(s mod n) ~stripe:s in
    Alcotest.check
      (Alcotest.list Alcotest.int)
      (Printf.sprintf "stripe %d holders" s)
      (Array.to_list (Alloc_rows.boxes_of_stripe alloc s) |> List.sort compare)
      (List.sort compare holders)
  done;
  checkb "hops tracked" true (Directory.mean_lookup_hops d >= 0.0)

let test_node_leave_rehomes_keys () =
  let d = Directory.create ~nodes:(nodes 10) in
  for s = 0 to 50 do
    ignore (Directory.publish d ~origin:0 ~stripe:s ~holder:(s mod 10))
  done;
  (* kill the node storing stripe 17's registration *)
  let owner = Ring.successor_of_key (Directory.ring d) 17 in
  Directory.node_leave d owner;
  let holders, _ =
    Directory.resolve d ~origin:(List.hd (Ring.members (Directory.ring d))) ~stripe:17
  in
  checkb "registration survived the departure" true (holders = [ 17 mod 10 ]);
  (* every other registration also survives *)
  for s = 0 to 50 do
    let hs, _ =
      Directory.resolve d ~origin:(List.hd (Ring.members (Directory.ring d))) ~stripe:s
    in
    checkb (Printf.sprintf "stripe %d intact" s) true (hs = [ s mod 10 ])
  done

let test_node_join_rehomes_keys () =
  let d = Directory.create ~nodes:(nodes 8) in
  for s = 0 to 30 do
    ignore (Directory.publish d ~origin:0 ~stripe:s ~holder:(100 + s))
  done;
  Directory.node_join d 77;
  for s = 0 to 30 do
    let hs, _ = Directory.resolve d ~origin:0 ~stripe:s in
    checkb (Printf.sprintf "stripe %d resolvable after join" s) true (hs = [ 100 + s ]);
    (* and it is stored exactly at the node the new ring makes
       responsible *)
    let owner = Ring.successor_of_key (Directory.ring d) s in
    checkb "stored at owner" true (Directory.stored_keys d owner > 0)
  done

let test_directory_load_balance () =
  (* registrations spread over nodes roughly evenly *)
  let n = 32 in
  let d = Directory.create ~nodes:(nodes n) in
  for s = 0 to 999 do
    ignore (Directory.publish d ~origin:(s mod n) ~stripe:s ~holder:0)
  done;
  let loads = List.map (Directory.stored_keys d) (Ring.members (Directory.ring d)) in
  let max_load = List.fold_left max 0 loads in
  checki "all stored" 1000 (List.fold_left ( + ) 0 loads);
  (* hashing is not perfect, but no node should hold a quarter of all keys *)
  checkb (Printf.sprintf "balanced (max %d)" max_load) true (max_load < 250)

let suites =
  [
    ( "directory.ring",
      [
        Alcotest.test_case "create invalid" `Quick test_ring_create_invalid;
        Alcotest.test_case "members sorted" `Quick test_ring_members_sorted_by_position;
        Alcotest.test_case "successor matches naive" `Quick test_successor_matches_naive;
        Alcotest.test_case "lookup finds owner" `Quick test_lookup_finds_owner_from_any_origin;
        Alcotest.test_case "self lookup free" `Quick test_lookup_zero_hops_when_local;
        Alcotest.test_case "logarithmic hops" `Quick test_lookup_logarithmic_hops;
        Alcotest.test_case "join/leave" `Quick test_join_leave_consistency;
        Alcotest.test_case "consistent hashing locality" `Quick test_ownership_shifts_only_locally_on_join;
      ] );
    ( "directory.store",
      [
        Alcotest.test_case "publish/resolve" `Quick test_publish_resolve_roundtrip;
        Alcotest.test_case "publish idempotent" `Quick test_publish_idempotent;
        Alcotest.test_case "unpublish" `Quick test_unpublish;
        Alcotest.test_case "whole allocation" `Quick test_publish_allocation_and_resolve_all;
        Alcotest.test_case "leave rehomes" `Quick test_node_leave_rehomes_keys;
        Alcotest.test_case "join rehomes" `Quick test_node_join_rehomes_keys;
        Alcotest.test_case "load balance" `Quick test_directory_load_balance;
      ] );
  ]
