type t = { words : int array; capacity : int }

(* 32 bits per 63-bit word: bit positioning is a shift and a mask
   instead of a division by 63. *)
let word_shift = 5
let bit_mask = 31

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((capacity + bit_mask) lsr word_shift) 0; capacity }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i lsr word_shift) land (1 lsl (i land bit_mask)) <> 0

let add t i =
  check t i;
  let w = i lsr word_shift in
  t.words.(w) <- t.words.(w) lor (1 lsl (i land bit_mask))

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
