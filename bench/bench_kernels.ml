(* Micro-benchmarks for the word-parallel matching kernels.

   Three sections; the first two are pairs of records so compare.exe
   tracks kernel drift (and the won speedups) point by point:

     kernels/layer_build/{bitset,array}    one BFS layer expansion —
         OR the frontier lefts' rows into a right-side set.  The bitset
         path is the Dinic BFS inner loop (raw word writes +
         andnot sweep); the array baseline is the per-vertex seen-array
         walk the kernels replaced.
     kernels/csr_layout/{clustered,interleaved}    the full CSR Dinic
         core on the same swarm-structured instance with components laid out
         contiguously vs round-robin interleaved across the id space —
         the locality cost of an arrival-ordered instance.
     kernels/hall_certificate    [Bipartite.hall_violator] on a stall
         round's instance through a warm arena: the CSR solve plus the
         read of its last BFS phase, the engine's certificate path.

   [matched_per_round] carries a deterministic work measure per section
   (bits built, requests matched, certificate size |X|) so the compare
   gate's drift check also pins kernel outputs, not just their speed. *)

open Vod
module Bitset = Vod_util.Bitset

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
(* Layer build                                                         *)
(* ------------------------------------------------------------------ *)

let layer_n_left = 16384
let layer_degree = 8
let layer_rounds = 64

(* A frontier of every fourth left, expanded once per round against a
   visited set holding every third right: the mix of fresh and already
   visited rights both paths must filter. *)
let make_layer_instance () =
  let g = Prng.create ~seed:0xb17 () in
  let n_left = layer_n_left in
  let n_right = n_left / 4 in
  let fill _ emit =
    for _ = 1 to layer_degree do
      emit (Prng.int g n_right)
    done
  in
  Bipartite.csr (Bipartite.create ~n_left ~n_right ~right_cap:(Array.make n_right 2) ~fill)

let time_layer_bitset csr =
  let n_left = Csr.n_left csr and n_right = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let frontier = Bitset.create n_right and visited = Bitset.create n_right in
  let built = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to layer_rounds do
    Bitset.clear visited;
    for r = 0 to (n_right / 3) - 1 do
      Bitset.unsafe_add visited (3 * r)
    done;
    Bitset.clear frontier;
    let fw = Bitset.words frontier in
    let wsh = Bitset.word_shift and bmask = Bitset.bit_mask in
    let l = ref 0 in
    while !l < n_left do
      for i = row_start.(!l) to row_start.(!l + 1) - 1 do
        let r = Array.unsafe_get col i in
        let w = r lsr wsh in
        Array.unsafe_set fw w (Array.unsafe_get fw w lor (1 lsl (r land bmask)))
      done;
      l := !l + 4
    done;
    Bitset.andnot_into ~dst:frontier visited;
    built := !built + Bitset.cardinal frontier
  done;
  (float_of_int (Obs.Clock.now_ns () - t0), !built, allocated_bytes () -. b0)

let time_layer_array csr =
  let n_left = Csr.n_left csr and n_right = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let seen = Array.make n_right false in
  let layer = Array.make n_right 0 in
  let built = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to layer_rounds do
    Array.fill seen 0 n_right false;
    for r = 0 to (n_right / 3) - 1 do
      seen.(3 * r) <- true
    done;
    let filled = ref 0 in
    let l = ref 0 in
    while !l < n_left do
      for i = row_start.(!l) to row_start.(!l + 1) - 1 do
        let r = Array.unsafe_get col i in
        if not (Array.unsafe_get seen r) then begin
          Array.unsafe_set seen r true;
          Array.unsafe_set layer !filled r;
          incr filled
        end
      done;
      l := !l + 4
    done;
    built := !built + !filled
  done;
  (float_of_int (Obs.Clock.now_ns () - t0), !built, allocated_bytes () -. b0)

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
  let layer = make_layer_instance () in
  ignore (time_layer_bitset layer);
  ignore (time_layer_array layer);
  let bitset = best_of ~repeats:5 (fun () -> time_layer_bitset layer) in
  let array = best_of ~repeats:5 (fun () -> time_layer_array layer) in
  let (_, bits, _) = bitset and (_, cells, _) = array in
  if bits <> cells then
    failwith
      (Printf.sprintf "bench_kernels: layer builds disagree (bitset %d, array %d)"
         bits cells);
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
    mk "kernels/layer_build/bitset" layer_n_left layer_rounds bitset;
    mk "kernels/layer_build/array" layer_n_left layer_rounds array;
    mk "kernels/csr_layout/clustered"
      (layout_blocks * layout_block_lefts)
      layout_rounds clustered;
    mk "kernels/csr_layout/interleaved"
      (layout_blocks * layout_block_lefts)
      layout_rounds interleaved;
    mk "kernels/hall_certificate" hall_n_left hall_rounds certificate;
  ]
