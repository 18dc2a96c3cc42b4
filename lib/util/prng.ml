(* The xoshiro256** state s0..s3 lives in 32 bytes, read and written as
   little-endian int64 words: a mutable record field of type int64 is
   boxed, so every store would allocate, while Bytes get/set compile to
   unboxed loads and stores. *)
type t = Bytes.t

let s0 = 0
let s1 = 8
let s2 = 16
let s3 = 24

(* SplitMix64 step, used only for seeding and stream derivation. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make a b c d =
  let g = Bytes.create 32 in
  Bytes.set_int64_le g s0 a;
  Bytes.set_int64_le g s1 b;
  Bytes.set_int64_le g s2 c;
  Bytes.set_int64_le g s3 d;
  g

let of_seed64 seed64 =
  let st = ref seed64 in
  let a = splitmix64 st in
  let b = splitmix64 st in
  let c = splitmix64 st in
  let d = splitmix64 st in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor a b) (Int64.logor c d) = 0L then make 1L 2L 3L 4L
  else make a b c d

let create ?(seed = 42) () = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] int64 g =
  let x0 = Bytes.get_int64_le g s0
  and x1 = Bytes.get_int64_le g s1
  and x2 = Bytes.get_int64_le g s2
  and x3 = Bytes.get_int64_le g s3 in
  let result = Int64.mul (rotl (Int64.mul x1 5L) 7) 9L in
  let t = Int64.shift_left x1 17 in
  let x2 = Int64.logxor x2 x0 in
  let x3 = Int64.logxor x3 x1 in
  let x1 = Int64.logxor x1 x2 in
  let x0 = Int64.logxor x0 x3 in
  let x2 = Int64.logxor x2 t in
  let x3 = rotl x3 45 in
  Bytes.set_int64_le g s0 x0;
  Bytes.set_int64_le g s1 x1;
  Bytes.set_int64_le g s2 x2;
  Bytes.set_int64_le g s3 x3;
  result

let split g = of_seed64 (int64 g)

let jump_to_stream g i =
  let mix = ref (Int64.logxor (Bytes.get_int64_le g s0) (Int64.of_int i)) in
  let seed = splitmix64 mix in
  of_seed64 (Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))

let bits g = Int64.to_int (Int64.shift_right_logical (int64 g) 2)

let max_int62 = (1 lsl 62) - 1

(* Rejection sampling on the top of the 62-bit range: draws at or above
   [limit] are redrawn.  [limit > max_int62 - bound], so a draw at or
   below that is accepted without computing [limit]. *)
let[@inline] index_of_bits bound v =
  if bound land (bound - 1) = 0 then v land (bound - 1)
  else if v <= max_int62 - bound || v < max_int62 - (max_int62 mod bound) then v mod bound
  else -1

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let j = ref (index_of_bits bound (bits g)) in
  while !j < 0 do
    j := index_of_bits bound (bits g)
  done;
  !j

(* [int64]'s step on a local copy of the state: the refs never escape,
   so they live unboxed in registers and the loop allocates nothing,
   where [int] would load and store the state through [g] per draw.
   [i < len <= Array.length a] and [j <= i], so the accesses are in
   bounds. *)
let shuffle_prefix g (a : int array) len =
  if len < 0 || len > Array.length a then invalid_arg "Prng.shuffle_prefix: len";
  let x0 = ref (Bytes.get_int64_le g s0)
  and x1 = ref (Bytes.get_int64_le g s1)
  and x2 = ref (Bytes.get_int64_le g s2)
  and x3 = ref (Bytes.get_int64_le g s3) in
  for i = len - 1 downto 1 do
    let j = ref (-1) in
    while !j < 0 do
      let result = Int64.mul (rotl (Int64.mul !x1 5L) 7) 9L in
      let t = Int64.shift_left !x1 17 in
      x2 := Int64.logxor !x2 !x0;
      x3 := Int64.logxor !x3 !x1;
      x1 := Int64.logxor !x1 !x2;
      x0 := Int64.logxor !x0 !x3;
      x2 := Int64.logxor !x2 t;
      x3 := rotl !x3 45;
      j := index_of_bits (i + 1) (Int64.to_int (Int64.shift_right_logical result 2))
    done;
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a !j);
    Array.unsafe_set a !j tmp
  done;
  Bytes.set_int64_le g s0 !x0;
  Bytes.set_int64_le g s1 !x1;
  Bytes.set_int64_le g s2 !x2;
  Bytes.set_int64_le g s3 !x3

let float g x =
  (* 53 uniform bits mapped to [0,1). *)
  let u = Int64.to_float (Int64.shift_right_logical (int64 g) 11) in
  x *. (u *. 0x1p-53)

let bool g = Int64.logand (int64 g) 1L = 1L
