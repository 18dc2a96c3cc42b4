(* Cross-cutting qcheck property batch for the data plane, codecs and
   the directory — randomised counterparts of the example-based tests. *)

open Vod_util
open Vod_model

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"codec: allocation roundtrips for any random system" ~count:150
      (make
         Gen.(
           let* seed = int_range 0 1_000_000 in
           let* n = int_range 2 20 in
           let* c = int_range 1 4 in
           let* k = int_range 1 3 in
           return (seed, n, c, k)))
      (fun (seed, n, c, k) ->
        let g = Prng.create ~seed () in
        let fleet = Box.Fleet.homogeneous ~n ~u:1.5 ~d:4.0 in
        let m = Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
        QCheck.assume (m >= 1);
        let catalog = Catalog.create ~m ~c in
        let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
        match Codec.of_string (Codec.to_string alloc) with
        | Error _ -> false
        | Ok alloc' ->
            let ok = ref (Allocation.n_boxes alloc = Allocation.n_boxes alloc') in
            for s = 0 to Catalog.total_stripes catalog - 1 do
              if Alloc_rows.boxes_of_stripe alloc s <> Alloc_rows.boxes_of_stripe alloc' s
              then ok := false
            done;
            !ok);
    Test.make ~name:"fleet codec roundtrips" ~count:150
      (pair (int_range 0 1_000_000) (int_range 1 30))
      (fun (seed, n) ->
        let g = Prng.create ~seed () in
        let fleet = Box.Fleet.dsl_mix g ~n ~d:(1.0 +. Prng.float g 5.0) in
        match Codec.fleet_of_string (Codec.fleet_to_string fleet) with
        | Error _ -> false
        | Ok fleet' -> fleet = fleet');
    Test.make ~name:"ring: lookup always finds the responsible node" ~count:200
      (pair (int_range 1 64) (int_range 0 100_000))
      (fun (n, key) ->
        let r = Vod_directory.Ring.create ~nodes:(List.init n Fun.id) in
        List.for_all
          (fun origin ->
            let found, hops = Vod_directory.Ring.lookup r ~origin ~key in
            found = Vod_directory.Ring.successor_of_key r key && hops >= 0 && hops < n)
          [ 0; n / 2; n - 1 ]);
    Test.make ~name:"repair: never overfills and reaches target when space allows"
      ~count:100
      (make
         Gen.(
           let* seed = int_range 0 1_000_000 in
           let* n = int_range 6 16 in
           return (seed, n)))
      (fun (seed, n) ->
        let g = Prng.create ~seed () in
        let fleet = Box.Fleet.homogeneous ~n ~u:2.0 ~d:4.0 in
        let k = 2 in
        let m = max 1 (Vod_alloc.Schemes.max_catalog ~fleet ~c:2 ~k / 2) in
        let catalog = Catalog.create ~m ~c:2 in
        let alloc = Vod_alloc.Schemes.random_independent g ~fleet ~catalog ~k in
        let alive = Array.make n true in
        alive.(Prng.int g n) <- false;
        match Vod_alloc.Repair.repair g ~fleet ~alloc ~alive ~target_k:k with
        | Error _ -> false
        | Ok (alloc', _) ->
            Allocation.validate alloc' ~fleet ~c:2 = Ok ()
            && Vod_alloc.Repair.under_replicated ~alloc:alloc' ~alive ~target_k:k = []);
  ]

let suites =
  [ ("properties.extra", List.map QCheck_alcotest.to_alcotest qcheck_cases) ]
