type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let check_bound t i name =
  if i < 0 || i >= t.len then invalid_arg (name ^ ": index out of bounds")

let get t i =
  check_bound t i "Vec.get";
  t.data.(i)

let set t i x =
  check_bound t i "Vec.set";
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit t.data 0 data' 0 t.len;
  t.data <- data'

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let clear t = t.len <- 0

let ensure_capacity t n x =
  if n < 0 then invalid_arg "Vec.ensure_capacity: negative capacity";
  let cap = Array.length t.data in
  if cap < n then begin
    (* Amortised doubling, so interleaving [ensure_capacity] with [push]
       keeps the O(1) amortised push bound. *)
    let cap' = ref (max 8 cap) in
    while !cap' < n do
      cap' := 2 * !cap'
    done;
    let data' = Array.make !cap' x in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end
let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let filter_in_place p t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!kept) <- x;
      incr kept
    end
  done;
  t.len <- !kept

let to_list t = List.init t.len (fun i -> t.data.(i))
