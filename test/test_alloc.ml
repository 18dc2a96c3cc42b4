(* Tests for vod_alloc: the four allocation schemes and the balance
   statistics. *)

open Vod_util
open Vod_model
open Vod_alloc

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let fleet n d = Box.Fleet.homogeneous ~n ~u:1.5 ~d

let test_max_catalog () =
  let f = fleet 10 4.0 in
  (* 10 boxes x 4 videos x c=4 slots = 160 slots; k=2: m = 160/(2*4) = 20 *)
  checki "max catalog" 20 (Schemes.max_catalog ~fleet:f ~c:4 ~k:2);
  checki "k=1" 40 (Schemes.max_catalog ~fleet:f ~c:4 ~k:1)

(* Shared invariants for any scheme result. *)
let check_alloc_invariants ~name ~fleet:f ~c alloc =
  Alcotest.(check (result unit string)) (name ^ ": validates") (Ok ())
    (Allocation.validate alloc ~fleet:f ~c)

let test_permutation_fills_exactly () =
  let g = Prng.create ~seed:1 () in
  let f = fleet 10 4.0 in
  let catalog = Catalog.create ~m:20 ~c:4 in
  let a = Schemes.random_permutation g ~fleet:f ~catalog ~k:2 in
  check_alloc_invariants ~name:"perm" ~fleet:f ~c:4 a;
  (* k*m*c = 160 replicas = all slots: every box is exactly full unless
     dedup dropped colliding replicas *)
  let total = ref 0 in
  for b = 0 to 9 do
    total := !total + Allocation.box_load a b;
    checkb "box within capacity" true (Allocation.box_load a b <= 16)
  done;
  checkb "storage nearly full" true (!total >= 150);
  (* replica spread: most stripes keep k=2 distinct holders *)
  let mn, mx, mean = Balance.replica_spread a in
  checkb "min >= 1" true (mn >= 1);
  checkb "max <= k" true (mx <= 2);
  checkb "mean close to k" true (mean > 1.85)

let test_permutation_deterministic_per_seed () =
  let f = fleet 8 2.0 in
  let catalog = Catalog.create ~m:4 ~c:4 in
  let a1 = Schemes.random_permutation (Prng.create ~seed:5 ()) ~fleet:f ~catalog ~k:2 in
  let a2 = Schemes.random_permutation (Prng.create ~seed:5 ()) ~fleet:f ~catalog ~k:2 in
  for s = 0 to Catalog.total_stripes catalog - 1 do
    Alcotest.check (Alcotest.array Alcotest.int) "same layout"
      (Alloc_rows.boxes_of_stripe a1 s) (Alloc_rows.boxes_of_stripe a2 s)
  done

let test_permutation_overflow_rejected () =
  let g = Prng.create () in
  let f = fleet 2 1.0 in
  let catalog = Catalog.create ~m:10 ~c:4 in
  Alcotest.check_raises "too big"
    (Invalid_argument "Schemes.random_permutation: replicas exceed storage slots")
    (fun () -> ignore (Schemes.random_permutation g ~fleet:f ~catalog ~k:2))

let test_independent_respects_capacity () =
  let g = Prng.create ~seed:2 () in
  let f = fleet 10 4.0 in
  let catalog = Catalog.create ~m:15 ~c:4 in
  let a = Schemes.random_independent g ~fleet:f ~catalog ~k:2 in
  check_alloc_invariants ~name:"indep" ~fleet:f ~c:4 a;
  for s = 0 to Catalog.total_stripes catalog - 1 do
    checki "k distinct replicas" 2 (Allocation.replica_count a s)
  done

let test_independent_weighted_by_storage () =
  (* a box with 3x the storage should store about 3x the replicas *)
  let g = Prng.create ~seed:3 () in
  let f =
    Array.append
      (Array.init 5 (fun id -> Box.make ~id ~upload:1.5 ~storage:9.0))
      (Array.init 15 (fun id -> Box.make ~id:(id + 5) ~upload:1.5 ~storage:3.0))
  in
  let catalog = Catalog.create ~m:40 ~c:4 in
  let a = Schemes.random_independent g ~fleet:f ~catalog ~k:2 in
  let big = ref 0 and small = ref 0 in
  for b = 0 to 4 do
    big := !big + Allocation.box_load a b
  done;
  for b = 5 to 19 do
    small := !small + Allocation.box_load a b
  done;
  let ratio = float_of_int !big /. float_of_int (max 1 !small) in
  (* the 5 big boxes hold as much storage as the 15 small ones *)
  checkb "heavy boxes attract replicas" true (ratio > 0.7 && ratio < 1.4)

let test_round_robin_spread () =
  let f = fleet 10 4.0 in
  let catalog = Catalog.create ~m:20 ~c:4 in
  let a = Schemes.round_robin ~fleet:f ~catalog ~k:2 in
  check_alloc_invariants ~name:"rr" ~fleet:f ~c:4 a;
  for s = 0 to Catalog.total_stripes catalog - 1 do
    checki "k replicas" 2 (Allocation.replica_count a s)
  done;
  (* perfect determinism *)
  let b = Schemes.round_robin ~fleet:f ~catalog ~k:2 in
  for s = 0 to Catalog.total_stripes catalog - 1 do
    Alcotest.check (Alcotest.array Alcotest.int) "deterministic"
      (Alloc_rows.boxes_of_stripe a s) (Alloc_rows.boxes_of_stripe b s)
  done

let test_full_replication_covers_everything () =
  let f = fleet 8 4.0 in
  (* m must fit in d*c = 16 slots *)
  let catalog = Catalog.create ~m:10 ~c:4 in
  let a = Schemes.full_replication ~fleet:f ~catalog in
  check_alloc_invariants ~name:"full" ~fleet:f ~c:4 a;
  for b = 0 to 7 do
    Alcotest.check (Alcotest.list Alcotest.int)
      (Printf.sprintf "box %d stores part of every video" b)
      []
      (Allocation.videos_not_stored a ~box:b)
  done

let test_full_replication_too_small_storage () =
  let f = fleet 8 1.0 in
  let catalog = Catalog.create ~m:10 ~c:4 in
  Alcotest.check_raises "storage below m"
    (Invalid_argument "Schemes.full_replication: box storage below catalog size")
    (fun () -> ignore (Schemes.full_replication ~fleet:f ~catalog))

let test_balance_permutation_tight () =
  let g = Prng.create ~seed:4 () in
  let f = fleet 20 4.0 in
  let catalog = Catalog.create ~m:40 ~c:4 in
  let a = Schemes.random_permutation g ~fleet:f ~catalog ~k:2 in
  let b = Balance.measure a ~fleet:f ~c:4 in
  checkb "no box over capacity" true (b.Balance.max_over_capacity <= 1.0 +. 1e-9);
  checkb "high utilisation" true (b.Balance.utilisation > 0.95);
  checkb "tight balance" true (b.Balance.coefficient_of_variation < 0.05)

let test_balance_independent_looser_than_permutation () =
  let g = Prng.create ~seed:5 () in
  let f = fleet 50 4.0 in
  let catalog = Catalog.create ~m:50 ~c:4 in
  let perm = Schemes.random_permutation (Prng.copy g) ~fleet:f ~catalog ~k:2 in
  let indep = Schemes.random_independent g ~fleet:f ~catalog ~k:2 in
  let bp = Balance.measure perm ~fleet:f ~c:4 in
  let bi = Balance.measure indep ~fleet:f ~c:4 in
  (* the permutation at half occupancy still spreads evenly; the
     independent one shows strictly more dispersion *)
  checkb "independent cov >= permutation cov" true
    (bi.Balance.coefficient_of_variation >= bp.Balance.coefficient_of_variation -. 1e-6)

let test_empty_catalog_schemes () =
  let g = Prng.create () in
  let f = fleet 4 2.0 in
  let catalog = Catalog.create ~m:0 ~c:4 in
  let a = Schemes.random_permutation g ~fleet:f ~catalog ~k:1 in
  checki "no stripes" 0 (Catalog.total_stripes (Allocation.catalog a));
  let b = Schemes.full_replication ~fleet:f ~catalog in
  checki "no stripes full" 0 (Catalog.total_stripes (Allocation.catalog b))

(* ------------------------------------------------------------------ *)
(* Placement law: the schemes against the list builder they replaced    *)
(* ------------------------------------------------------------------ *)

(* The list builder the schemes used before the stamp dedup: per-stripe
   target lists, deduplicated through a [Hashtbl] in list order.
   [dedup_hits] counts the targets it dropped. *)
module Reference = struct
  let dedup_hits = ref 0

  let build ~catalog ~n_boxes per_stripe_targets =
    let boxes_of_stripe =
      Array.map
        (fun targets ->
          let seen = Hashtbl.create 8 in
          let keep = Vec.create () in
          List.iter
            (fun b ->
              if Hashtbl.mem seen b then incr dedup_hits
              else begin
                Hashtbl.add seen b ();
                Vec.push keep b
              end)
            targets;
          Vec.to_array keep)
        per_stripe_targets
    in
    Allocation.of_replica_lists ~catalog ~n_boxes boxes_of_stripe

  let random_permutation g ~fleet ~catalog ~k =
    let c = Catalog.stripes_per_video catalog in
    let total = Catalog.total_stripes catalog in
    let owners = Vec.create () in
    Array.iter
      (fun b ->
        for _ = 1 to Box.storage_slots ~c b do
          Vec.push owners b.Box.id
        done)
      fleet;
    let owners = Vec.to_array owners in
    if k * total > Array.length owners then
      invalid_arg "Schemes.random_permutation: replicas exceed storage slots";
    for i = Array.length owners - 1 downto 1 do
      let j = Prng.int g (i + 1) in
      let tmp = owners.(i) in
      owners.(i) <- owners.(j);
      owners.(j) <- tmp
    done;
    let per_stripe = Array.make total [] in
    for i = 0 to (k * total) - 1 do
      let stripe = i / k in
      per_stripe.(stripe) <- owners.(i) :: per_stripe.(stripe)
    done;
    build ~catalog ~n_boxes:(Array.length fleet) per_stripe

  let random_independent g ~fleet ~catalog ~k =
    let c = Catalog.stripes_per_video catalog in
    let total = Catalog.total_stripes catalog in
    let n = Array.length fleet in
    let capacity = Array.map (fun b -> Box.storage_slots ~c b) fleet in
    let load = Array.make n 0 in
    let cat = Sample.Categorical.create (Array.map (fun b -> b.Box.storage) fleet) in
    let per_stripe = Array.make total [] in
    for s = 0 to total - 1 do
      for _ = 1 to k do
        let placed = ref false and attempts = ref 0 in
        while not !placed do
          incr attempts;
          let b =
            if !attempts <= 64 then Sample.Categorical.draw g cat
            else begin
              let free = ref (-1) in
              for i = 0 to n - 1 do
                if
                  !free = -1 && load.(i) < capacity.(i) && not (List.mem i per_stripe.(s))
                then free := i
              done;
              if !free = -1 then
                failwith "Schemes.random_independent: no box can take replica";
              !free
            end
          in
          if load.(b) < capacity.(b) && not (List.mem b per_stripe.(s)) then begin
            load.(b) <- load.(b) + 1;
            per_stripe.(s) <- b :: per_stripe.(s);
            placed := true
          end
        done
      done
    done;
    build ~catalog ~n_boxes:n per_stripe

  let round_robin ~fleet ~catalog ~k =
    let c = Catalog.stripes_per_video catalog in
    let total = Catalog.total_stripes catalog in
    let n = Array.length fleet in
    let capacity = Array.map (fun b -> Box.storage_slots ~c b) fleet in
    let load = Array.make n 0 in
    let per_stripe = Array.make total [] in
    for s = 0 to total - 1 do
      for i = 0 to k - 1 do
        let start = ((s * k) + i) mod n in
        let rec place offset =
          if offset = n then
            invalid_arg "Schemes.round_robin: replicas exceed storage slots"
          else
            let b = (start + offset) mod n in
            if load.(b) < capacity.(b) && not (List.mem b per_stripe.(s)) then begin
              load.(b) <- load.(b) + 1;
              per_stripe.(s) <- b :: per_stripe.(s)
            end
            else place (offset + 1)
        in
        place 0
      done
    done;
    build ~catalog ~n_boxes:n per_stripe

  let full_replication ~fleet ~catalog =
    let c = Catalog.stripes_per_video catalog in
    let m = Catalog.videos catalog in
    let n = Array.length fleet in
    Array.iter
      (fun box ->
        if Box.storage_slots ~c box < m then
          invalid_arg "Schemes.full_replication: box storage below catalog size")
      fleet;
    let per_stripe = Array.make (Catalog.total_stripes catalog) [] in
    for b = 0 to n - 1 do
      for v = 0 to m - 1 do
        let s = (v * c) + ((b + v) mod c) in
        per_stripe.(s) <- b :: per_stripe.(s)
      done
    done;
    build ~catalog ~n_boxes:n per_stripe

  let allocate g ~scheme ~fleet ~catalog ~k =
    match scheme with
    | Schemes.Permutation -> random_permutation g ~fleet ~catalog ~k
    | Independent -> random_independent g ~fleet ~catalog ~k
    | Round_robin -> round_robin ~fleet ~catalog ~k
    | Full_replication -> full_replication ~fleet ~catalog
end

(* A small fleet of 2..64 boxes, homogeneous, two-class or proportional
   (storage ratio x upload, so slot counts differ), with 2-24 slots a
   box: with few boxes, two slots of one box often land in one stripe's
   k slots. *)
let placement_gen =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n = int_range 2 64 in
    let* c = int_range 1 4 in
    let* k = int_range 1 3 in
    let* d = int_range 2 6 in
    let* kind = int_range 0 2 in
    let* uploads = array_size (return n) (float_range 0.5 3.0) in
    let* share = float_range 0.05 1.0 in
    return (seed, n, c, k, d, kind, uploads, share))

let print_placement (seed, n, c, k, d, kind, _, share) =
  Printf.sprintf "seed %d n %d c %d k %d d %d fleet %s catalog share %.2f" seed n c k d
    (match kind with 0 -> "homogeneous" | 1 -> "two-class" | _ -> "proportional")
    share

(* [Schemes.allocate] and [Reference.allocate] agree under every scheme:
   the same rows in the same order, or the same exception. *)
let placement_agrees (seed, n, c, k, d, kind, uploads, share) =
  let d = float_of_int d in
  let fleet =
    match kind with
    | 0 -> Box.Fleet.homogeneous ~n ~u:1.5 ~d
    | 1 -> Box.Fleet.two_class ~n ~rich_fraction:0.25 ~u_rich:3.0 ~u_poor:0.5 ~d
    | _ -> Box.Fleet.proportional ~n ~uploads ~ratio:(d /. 2.0)
  in
  let m_max = Schemes.max_catalog ~fleet ~c ~k in
  let m = max 1 (int_of_float (share *. float_of_int m_max)) in
  let catalog = Catalog.create ~m ~c in
  let rows a =
    ( Array.init (Catalog.total_stripes catalog) (Alloc_rows.boxes_of_stripe a),
      Array.init n (Alloc_rows.stripes_of_box a) )
  in
  let outcome place = match place (Prng.create ~seed ()) with
    | a -> Ok (rows a)
    | exception (Invalid_argument m | Failure m) -> Error m
  in
  List.for_all
    (fun (_, scheme) ->
      outcome (fun g -> Schemes.allocate g ~scheme ~fleet ~catalog ~k)
      = outcome (fun g -> Reference.allocate g ~scheme ~fleet ~catalog ~k))
    Schemes.names

(* The law's draws reach the dedup branch: a fixed sample of them drops
   at least one duplicate target, so the agreement covers it. *)
let test_placement_law_reaches_dedup () =
  Reference.dedup_hits := 0;
  let draws = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:60 placement_gen in
  checkb "every draw agrees" true (List.for_all placement_agrees draws);
  checkb "the dedup branch ran" true (!Reference.dedup_hits > 0)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  let arb =
    make
      Gen.(
        let* seed = int_range 0 1_000_000 in
        let* n = int_range 4 24 in
        let* c = int_range 1 6 in
        let* k = int_range 1 3 in
        let* d = int_range 2 6 in
        return (seed, n, c, k, d))
  in
  [
    Test.make ~name:"placement law: schemes equal the list builder" ~count:200
      (make ~print:print_placement placement_gen)
      placement_agrees;
    Test.make ~name:"permutation allocation always validates" ~count:100 arb
      (fun (seed, n, c, k, d) ->
        let g = Prng.create ~seed () in
        let f = Box.Fleet.homogeneous ~n ~u:1.5 ~d:(float_of_int d) in
        let m = Schemes.max_catalog ~fleet:f ~c ~k in
        QCheck.assume (m >= 1);
        let catalog = Catalog.create ~m ~c in
        let a = Schemes.random_permutation g ~fleet:f ~catalog ~k in
        Allocation.validate a ~fleet:f ~c = Ok ());
    Test.make ~name:"independent allocation: k distinct replicas each" ~count:60 arb
      (fun (seed, n, c, k, d) ->
        let g = Prng.create ~seed () in
        let f = Box.Fleet.homogeneous ~n ~u:1.5 ~d:(float_of_int d) in
        let m = Schemes.max_catalog ~fleet:f ~c ~k / 2 in
        QCheck.assume (m >= 1);
        let catalog = Catalog.create ~m ~c in
        let a = Schemes.random_independent g ~fleet:f ~catalog ~k in
        Allocation.validate a ~fleet:f ~c = Ok ()
        &&
        let ok = ref true in
        for s = 0 to Catalog.total_stripes catalog - 1 do
          if Allocation.replica_count a s <> k then ok := false
        done;
        !ok);
    Test.make ~name:"per-box loads sum to total replicas" ~count:100 arb
      (fun (seed, n, c, k, d) ->
        let g = Prng.create ~seed () in
        let f = Box.Fleet.homogeneous ~n ~u:1.5 ~d:(float_of_int d) in
        let m = Schemes.max_catalog ~fleet:f ~c ~k in
        QCheck.assume (m >= 1);
        let catalog = Catalog.create ~m ~c in
        let a = Schemes.random_permutation g ~fleet:f ~catalog ~k in
        let by_box = ref 0 and by_stripe = ref 0 in
        for b = 0 to n - 1 do
          by_box := !by_box + Allocation.box_load a b
        done;
        for s = 0 to Catalog.total_stripes catalog - 1 do
          by_stripe := !by_stripe + Allocation.replica_count a s
        done;
        !by_box = !by_stripe);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation guards                                                   *)
(* ------------------------------------------------------------------ *)

(* Words allocated on both heaps by [f], net of the measurement's own. *)
let words_of = Vod_obs.Words.spent

(* chaos-outage's placement: n = 8192, d = 4, c = 4, k = 4 and 6144
   videos, 24576 stripes on 131072 slots. *)
let chaos_allocation () =
  let fleet = Box.Fleet.homogeneous ~n:8192 ~u:2.0 ~d:4.0 in
  Schemes.random_permutation (Prng.create ~seed:3 ()) ~fleet
    ~catalog:(Catalog.create ~m:6144 ~c:4) ~k:4

(* An install round of 16 replicas on chaos-outage's allocation.  It was
   57_808 words when [add_replicas] copied the three outer arrays (two
   of 24576 stripe pointers, one of 8192 box pointers) and its touched
   rows, and it is 58 in place: the batch check's list and one closure.
   The bound, 16 words a pair, is far below one outer array. *)
let test_install_guard () =
  let a = chaos_allocation () in
  let g = Prng.create ~seed:9 () in
  let rec draw acc k =
    if k = 0 then acc
    else
      let stripe = Prng.int g 24576 and box = Prng.int g 8192 in
      if Allocation.possesses a ~box ~stripe || List.mem (stripe, box) acc then draw acc k
      else draw ((stripe, box) :: acc) (k - 1)
  in
  let pairs = draw [] 16 in
  let (), spent = words_of (fun () -> Allocation.add_replicas a pairs) in
  checkb "installed" true
    (List.for_all (fun (stripe, box) -> Allocation.possesses a ~box ~stripe) pairs);
  if spent > 16.0 *. 16.0 then
    Alcotest.failf "a 16-pair install allocated %.0f words (bound %d)" spent (16 * 16)

(* [Repair.under_replicated] with one box in 32 dead: its result list,
   3 words a stripe, is all it allocates (8_727 words).  With a
   [fold_left] closure per stripe it was 131_607. *)
let test_under_replicated_guard () =
  let a = chaos_allocation () in
  let alive = Array.init 8192 (fun b -> b mod 32 <> 5) in
  let under, spent =
    words_of (fun () -> Repair.under_replicated ~alloc:a ~alive ~target_k:4)
  in
  let result = 3.0 *. float_of_int (List.length under) in
  checkb "some stripe is under-replicated" true (under <> []);
  if spent > result then
    Alcotest.failf "under_replicated allocated %.0f words for a %.0f-word result" spent
      result

let suites =
  [
    ( "alloc.schemes",
      [
        Alcotest.test_case "max_catalog" `Quick test_max_catalog;
        Alcotest.test_case "permutation fills storage" `Quick test_permutation_fills_exactly;
        Alcotest.test_case "permutation deterministic" `Quick test_permutation_deterministic_per_seed;
        Alcotest.test_case "permutation overflow" `Quick test_permutation_overflow_rejected;
        Alcotest.test_case "independent capacity" `Quick test_independent_respects_capacity;
        Alcotest.test_case "independent storage weighting" `Quick test_independent_weighted_by_storage;
        Alcotest.test_case "round robin" `Quick test_round_robin_spread;
        Alcotest.test_case "full replication coverage" `Quick test_full_replication_covers_everything;
        Alcotest.test_case "full replication storage check" `Quick test_full_replication_too_small_storage;
        Alcotest.test_case "empty catalog" `Quick test_empty_catalog_schemes;
        Alcotest.test_case "placement law reaches dedup" `Quick
          test_placement_law_reaches_dedup;
      ] );
    ( "alloc.balance",
      [
        Alcotest.test_case "permutation tight" `Quick test_balance_permutation_tight;
        Alcotest.test_case "independent looser" `Quick test_balance_independent_looser_than_permutation;
      ] );
    ("alloc.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ( "alloc.guard",
      [
        Alcotest.test_case "install allocates O(pairs)" `Quick test_install_guard;
        Alcotest.test_case "under-replicated scan allocates its result" `Quick
          test_under_replicated_guard;
      ] );
  ]

(* silence unused warnings for helpers used only in some branches *)
let _ = checkf
