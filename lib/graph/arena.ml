(* Scratch-buffer arena of the CSR Dinic core.  See the mli for the
   slab discipline; the implementation is just named growable int-array
   cells. *)

type slab = { mutable buf : int array }
type bitslab = { mutable bits : Vod_util.Bitset.t }

type t = {
  assignment : slab;
  right_load : slab;
  queue : slab;
  level : slab;
  it_left : slab;
  it_right : slab;
  matched_edge : slab;
  t_row_start : slab;
  t_packed : slab;
  free_left : bitslab;
  free_right : bitslab;
  frontier : bitslab;
  visited_right : bitslab;
  mutable reached : int;
}

let slab () = { buf = [||] }
let bitslab () = { bits = Vod_util.Bitset.create 0 }

let create () =
  {
    assignment = slab ();
    right_load = slab ();
    queue = slab ();
    level = slab ();
    it_left = slab ();
    it_right = slab ();
    matched_edge = slab ();
    t_row_start = slab ();
    t_packed = slab ();
    free_left = bitslab ();
    free_right = bitslab ();
    frontier = bitslab ();
    visited_right = bitslab ();
    reached = 0;
  }

let ints slab n =
  if Array.length slab.buf < n then begin
    let cap = ref 8 in
    while !cap < n do
      cap := 2 * !cap
    done;
    (* scratch: old contents are never carried over, so no blit *)
    slab.buf <- Array.make !cap 0
  end;
  slab.buf

(* Bitset slabs grow with the same power-of-two schedule as [ints], so
   two bitslabs always requested with the same [n] (the kernels request
   their right-side sets together) share a capacity and stay legal
   operands of the word-sweep operations, which insist on equality. *)
let bits bitslab n =
  if Vod_util.Bitset.capacity bitslab.bits < n then begin
    let cap = ref 8 in
    while !cap < n do
      cap := 2 * !cap
    done;
    bitslab.bits <- Vod_util.Bitset.create !cap
  end;
  bitslab.bits

let assignment t = t.assignment.buf
let right_load t = t.right_load.buf

let words t =
  let slabs =
    [
      t.assignment; t.right_load; t.queue; t.level; t.it_left; t.it_right;
      t.matched_edge; t.t_row_start; t.t_packed;
    ]
  in
  let bitslabs = [ t.free_left; t.free_right; t.frontier; t.visited_right ] in
  List.fold_left (fun acc s -> acc + Array.length s.buf) 0 slabs
  + List.fold_left (fun acc b -> acc + Vod_util.Bitset.word_count b.bits) 0 bitslabs
