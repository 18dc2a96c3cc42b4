(* Flat CSR bipartite instance with one in-place builder.

   [rebuild_rows] writes the row view directly, one row at a time, and
   sorts and deduplicates each row in place.  All buffers grow by
   amortised doubling and are never shrunk, so a caller that refills
   the same instance every round stops allocating once the buffers
   reach their high-water mark. *)

type t = {
  mutable n_left : int;
  n_right : int;
  mutable row_start : int array; (* entries 0 .. n_left are meaningful *)
  mutable col : int array; (* entries 0 .. n_edges - 1 are meaningful *)
  mutable n_edges : int;
  right_cap : int array; (* one entry per right *)
  (* scratch for radix-sorting a long row in [rebuild_rows] *)
  mutable row_tmp : int array;
  digit_cnt : int array; (* 257 bucket cursors, one 8-bit digit *)
}

let next_cap n =
  let c = ref 8 in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Old contents are irrelevant after a rebuild, so a grown buffer is a
   plain [Array.make]; only [col] keeps its written prefix, which
   [rebuild_rows] copies itself. *)
let ensure a n = if Array.length a >= n then a else Array.make (next_cap n) 0

(* [Array.blit] for int arrays, as a typed loop: the runtime's blit
   cannot tell an [int array] from a pointer array and runs the write
   barrier on every cell of a major-heap destination. *)
let blit_ints src src_pos dst dst_pos len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > Array.length src
    || dst_pos + len > Array.length dst
  then invalid_arg "Csr.blit_ints";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

let create ~n_right =
  if n_right < 0 then invalid_arg "Csr.create: negative dimension";
  {
    n_left = 0;
    n_right;
    row_start = [| 0 |];
    col = [||];
    n_edges = 0;
    right_cap = Array.make n_right 0;
    row_tmp = [||];
    digit_cnt = Array.make 257 0;
  }

let set_right_caps t caps =
  if Array.length caps < t.n_right then invalid_arg "Csr.set_right_caps: array too short";
  let right_cap = t.right_cap in
  for r = 0 to t.n_right - 1 do
    let c = caps.(r) in
    if c < 0 then invalid_arg "Csr.set_right_caps: negative capacity";
    right_cap.(r) <- c
  done

(* LSD radix sort of [a.(lo .. hi - 1)], one 8-bit digit a pass,
   through the instance's scratch; every value is below [n_right], so
   the passes stop once its digits run out (two for n_right <= 65536).
   Allocates only when [row_tmp] grows past its high-water mark. *)
let radix_sort_row t a lo hi =
  let len = hi - lo in
  t.row_tmp <- ensure t.row_tmp len;
  let tmp = t.row_tmp and cnt = t.digit_cnt in
  let shift = ref 0 in
  while (t.n_right - 1) lsr !shift > 0 do
    let sh = !shift in
    Array.fill cnt 0 257 0;
    for i = lo to hi - 1 do
      let d = (a.(i) lsr sh) land 255 in
      cnt.(d + 1) <- cnt.(d + 1) + 1
    done;
    for d = 1 to 256 do
      cnt.(d) <- cnt.(d) + cnt.(d - 1)
    done;
    for i = lo to hi - 1 do
      let v = a.(i) in
      let d = (v lsr sh) land 255 in
      tmp.(cnt.(d)) <- v;
      cnt.(d) <- cnt.(d) + 1
    done;
    blit_ints tmp 0 a lo len;
    shift := sh + 8
  done

(* Rows up to this long are insertion-sorted, longer ones radix-sorted:
   timed on random rows with 1024 and 65536 rights (2-core Xeon, OCaml
   5.1.1), the two tie at about 24 entries and the radix sort is ahead
   from 32 on.  Rows that long are cache windows of a popular stripe: a
   flash crowd's rows run to thousands, where an insertion sort is
   quadratic. *)
let insertion_max_row = 24

(* Sort [a.(lo .. hi - 1)] ascending and drop adjacent duplicates in
   place, returning the row's new end: every row's normal form. *)
let sort_dedup_row t a lo hi =
  if hi - lo > insertion_max_row then radix_sort_row t a lo hi
  else
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
  let w = ref lo in
  for i = lo to hi - 1 do
    let r = a.(i) in
    if !w = lo || a.(!w - 1) <> r then begin
      a.(!w) <- r;
      incr w
    end
  done;
  !w

(* Row-major rebuild: produce the next round's row view in one pass
   over the rows, writing each row straight into [col], then sorting
   and deduplicating it in place. *)
let rebuild_rows t ~n_left ~fill =
  if n_left < 0 then invalid_arg "Csr.rebuild_rows: negative dimension";
  let n_right = t.n_right in
  let row_start = ensure t.row_start (n_left + 1) in
  (* [col] grows as rows are written: a row's size is unknown until it
     is filled *)
  let col = ref (ensure t.col 8) in
  let w = ref 0 in
  let reserve need =
    if Array.length !col < need then begin
      let grown = Array.make (next_cap need) 0 in
      blit_ints !col 0 grown 0 !w;
      col := grown
    end
  in
  (* one [emit] closure per rebuild, shared by every row *)
  let emit r =
    if r < 0 || r >= n_right then
      invalid_arg "Csr.rebuild_rows: emitted right out of range";
    if Array.length !col <= !w then reserve (!w + 1);
    !col.(!w) <- r;
    incr w
  in
  row_start.(0) <- 0;
  for l = 0 to n_left - 1 do
    let row_begin = !w in
    fill l emit;
    w := sort_dedup_row t !col row_begin !w;
    row_start.(l + 1) <- !w
  done;
  t.row_start <- row_start;
  t.col <- !col;
  t.n_left <- n_left;
  t.n_edges <- !w

(* Grow the buffers now, keeping the current rows, so that rebuilds
   up to [n_left] rows and [n_edges] written entries find them sized. *)
let reserve t ~n_left ~n_edges =
  if n_left < 0 || n_edges < 0 then invalid_arg "Csr.reserve: negative size";
  if Array.length t.row_start <= n_left then begin
    let grown = Array.make (next_cap (n_left + 1)) 0 in
    blit_ints t.row_start 0 grown 0 (t.n_left + 1);
    t.row_start <- grown
  end;
  if Array.length t.col < n_edges then begin
    let grown = Array.make (next_cap n_edges) 0 in
    blit_ints t.col 0 grown 0 t.n_edges;
    t.col <- grown
  end

let n_left t = t.n_left
let n_right t = t.n_right
let n_edges t = t.n_edges
let row_start t = t.row_start
let col t = t.col
let right_cap_array t = t.right_cap

let right_cap t r =
  if r < 0 || r >= t.n_right then invalid_arg "Csr.right_cap: right out of range";
  t.right_cap.(r)

let degree t l =
  if l < 0 || l >= t.n_left then invalid_arg "Csr.degree: left out of range";
  t.row_start.(l + 1) - t.row_start.(l)

let mem t ~left ~right =
  if left < 0 || left >= t.n_left then invalid_arg "Csr.mem: left out of range";
  let rec scan i = i < t.row_start.(left + 1) && (t.col.(i) = right || scan (i + 1)) in
  scan t.row_start.(left)
