(* Micro-benchmarks of the CSR Dinic core on fixed instances.

   Two sections; the first is a pair of records so compare.exe tracks
   the layout cost point by point:

     kernels/csr_layout/{clustered,interleaved}    the full CSR Dinic
         core on the same swarm-structured instance with components laid out
         contiguously vs round-robin interleaved across the id space —
         the locality cost of an arrival-ordered instance.
     kernels/hall_certificate    [Bipartite.hall_violator] on a stall
         round's instance through a warm arena: the CSR solve plus the
         read of its last BFS phase, the engine's certificate path.

   [matched_per_round] carries a deterministic work measure per section
   (requests matched, certificate size |X|) so the compare gate's drift
   check also pins kernel outputs, not just their speed. *)

open Vod

type record = Bench_matching.record = {
  name : string;
  n : int;
  rounds : int;
  ns_per_round : float;
  matched_per_round : float;
  alloc_per_round : float;
}

let best_of = Bench_matching.best_of
let allocated_bytes = Bench_matching.allocated_bytes

(* ------------------------------------------------------------------ *)
(* Layout: clustered vs interleaved component order                    *)
(* ------------------------------------------------------------------ *)

let layout_blocks = 512
let layout_block_lefts = 128
let layout_block_rights = 32
let layout_degree = 8
let layout_rounds = 8

(* The same swarm population laid out two ways: [clustered] numbers
   each swarm contiguously, [interleaved] round-robins the swarms across the id space (the shape
   an arrival-ordered engine instance takes).  Identical edge
   multiset up to relabelling, so matched counts agree. *)
let make_layout_instance ~interleaved =
  let g = Prng.create ~seed:0x1a9 () in
  let blocks = layout_blocks in
  let n_left = blocks * layout_block_lefts in
  let n_right = blocks * layout_block_rights in
  let right_cap = Array.make n_right 0 in
  let cap_of_slot = Array.init n_right (fun _ -> 2 + Prng.int g 7) in
  let right_id ~swarm ~j =
    if interleaved then swarm + (blocks * j) else (swarm * layout_block_rights) + j
  in
  for swarm = 0 to blocks - 1 do
    for j = 0 to layout_block_rights - 1 do
      right_cap.(right_id ~swarm ~j) <- cap_of_slot.((swarm * layout_block_rights) + j)
    done
  done;
  (* the interleaved layout fills its rows out of order, so the rows
     are drawn into an array first *)
  let rows = Array.make n_left [||] in
  for slot = 0 to n_left - 1 do
    let swarm = slot / layout_block_lefts in
    let l =
      if interleaved then (slot mod layout_block_lefts * blocks) + swarm else slot
    in
    rows.(l) <-
      Array.init layout_degree (fun _ ->
          right_id ~swarm ~j:(Prng.int g layout_block_rights))
  done;
  let fill l emit = Array.iter emit rows.(l) in
  Bipartite.csr (Bipartite.create ~n_left ~n_right ~right_cap ~fill)

let time_csr csr =
  let arena = Arena.create () in
  (* one untimed round grows the arena to its high-water mark *)
  ignore (Dinic.solve_csr ~arena csr);
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to layout_rounds do
    matched := !matched + Dinic.solve_csr ~arena csr
  done;
  (float_of_int (Obs.Clock.now_ns () - t0), !matched, allocated_bytes () -. b0)

(* ------------------------------------------------------------------ *)
(* Hall certificate                                                    *)
(* ------------------------------------------------------------------ *)

let hall_n_left = 16384
let hall_rounds = 8

(* n/4 boxes of 2-8 slots, each request adjacent to 8 random boxes,
   except every eighth request, which only boxes 0-63 (two slots each)
   can serve: 2048 requests on 128 slots, so the round stalls and the
   certificate is that cluster's alternating closure. *)
let make_hall_instance () =
  let g = Prng.create ~seed:0x4a11 () in
  let n_right = hall_n_left / 4 in
  let right_cap = Array.init n_right (fun r -> if r < 64 then 2 else 2 + Prng.int g 7) in
  Bipartite.create ~n_left:hall_n_left ~n_right ~right_cap ~fill:(fun l emit ->
      for _ = 1 to 8 do
        emit (Prng.int g (if l mod 8 = 0 then 64 else n_right))
      done)

let time_hall b =
  let arena = Arena.create () in
  (* one untimed round grows the arena *)
  ignore (Bipartite.hall_violator ~arena b);
  let size = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to hall_rounds do
    match Bipartite.hall_violator ~arena b with
    | Some v -> size := !size + List.length v.Bipartite.requests
    | None -> failwith "bench_kernels: the certificate instance is feasible"
  done;
  (float_of_int (Obs.Clock.now_ns () - t0), !size, allocated_bytes () -. b0)

(* ------------------------------------------------------------------ *)

let run () =
  let mk name n rounds (ns, work, bytes) =
    let r = float_of_int rounds in
    {
      name;
      n;
      rounds;
      ns_per_round = ns /. r;
      matched_per_round = float_of_int work /. r;
      alloc_per_round = bytes /. r;
    }
  in
  let clustered_csr = make_layout_instance ~interleaved:false in
  let interleaved_csr = make_layout_instance ~interleaved:true in
  let clustered = best_of ~repeats:3 (fun () -> time_csr clustered_csr) in
  let interleaved = best_of ~repeats:3 (fun () -> time_csr interleaved_csr) in
  let (_, mc, _) = clustered and (_, mi, _) = interleaved in
  if mc <> mi then
    failwith
      (Printf.sprintf
         "bench_kernels: layout variants disagree (clustered %d, interleaved %d)" mc mi);
  let hall = make_hall_instance () in
  let certificate = best_of ~repeats:3 (fun () -> time_hall hall) in
  [
    mk "kernels/csr_layout/clustered"
      (layout_blocks * layout_block_lefts)
      layout_rounds clustered;
    mk "kernels/csr_layout/interleaved"
      (layout_blocks * layout_block_lefts)
      layout_rounds interleaved;
    mk "kernels/hall_certificate" hall_n_left hall_rounds certificate;
  ]
