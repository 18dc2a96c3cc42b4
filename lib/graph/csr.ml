(* Flat CSR bipartite instance with two in-place builders.

   After [reset], the pending edge list ([e_left]/[e_right], insertion
   order) is the source of truth; [row_start]/[col] are a derived
   row-major view rebuilt by [finalize] whenever edges were added since
   the last rebuild.  [rebuild_rows] instead writes the row view
   directly, one row at a time, and leaves the pending list stale.
   All buffers grow by amortised doubling and are never shrunk, so a
   caller that refills the same instance every round stops allocating
   once the buffers reach their high-water mark. *)

type t = {
  mutable n_left : int;
  mutable n_right : int;
  mutable row_start : int array; (* entries 0 .. n_left are meaningful *)
  mutable col : int array; (* entries 0 .. n_edges - 1 are meaningful *)
  mutable n_edges : int;
  mutable right_cap : int array; (* entries 0 .. n_right - 1 *)
  (* pending edges, in insertion order *)
  mutable e_left : int array;
  mutable e_right : int array;
  mutable n_pending : int;
  (* scratch for finalize *)
  mutable cursor : int array; (* per-left counting-sort cursors *)
  mutable rcnt : int array; (* per-right counting-sort cursors *)
  mutable order : int array; (* pending-edge ids sorted by right *)
  mutable dirty : bool;
  mutable frozen : bool; (* true after [rebuild_rows]: pending list is stale *)
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

(* Grown buffers start zeroed and old contents are irrelevant after a
   rebuild, so plain [Array.make] (no blit) suffices for scratch; the
   pending-edge buffers do need their prefix preserved. *)
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

let ensure_keep a n used =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (next_cap n) 0 in
    Array.blit a 0 a' 0 used;
    a'
  end

let create () =
  {
    n_left = 0;
    n_right = 0;
    row_start = [| 0 |];
    col = [||];
    n_edges = 0;
    right_cap = [||];
    e_left = [||];
    e_right = [||];
    n_pending = 0;
    cursor = [||];
    rcnt = [||];
    order = [||];
    dirty = false;
    frozen = false;
    row_tmp = [||];
    digit_cnt = Array.make 257 0;
  }

let reset t ~n_left ~n_right =
  if n_left < 0 || n_right < 0 then invalid_arg "Csr.reset: negative dimension";
  t.n_left <- n_left;
  t.n_right <- n_right;
  t.n_pending <- 0;
  t.n_edges <- 0;
  t.right_cap <- ensure t.right_cap n_right;
  Array.fill t.right_cap 0 n_right 0;
  t.row_start <- ensure t.row_start (n_left + 1);
  Array.fill t.row_start 0 (n_left + 1) 0;
  t.dirty <- false;
  t.frozen <- false

let set_right_caps t caps =
  if Array.length caps < t.n_right then invalid_arg "Csr.set_right_caps: array too short";
  let right_cap = t.right_cap in
  for r = 0 to t.n_right - 1 do
    let c = caps.(r) in
    if c < 0 then invalid_arg "Csr.set_right_caps: negative capacity";
    right_cap.(r) <- c
  done

let add_edge t ~left ~right =
  if t.frozen then
    invalid_arg "Csr.add_edge: instance is frozen after rebuild_rows (reset it first)";
  if left < 0 || left >= t.n_left then invalid_arg "Csr.add_edge: left out of range";
  if right < 0 || right >= t.n_right then invalid_arg "Csr.add_edge: right out of range";
  let n = t.n_pending in
  (* [e_left] and [e_right] always grow together *)
  if n = Array.length t.e_left then begin
    t.e_left <- ensure_keep t.e_left (n + 1) n;
    t.e_right <- ensure_keep t.e_right (n + 1) n
  end;
  t.e_left.(n) <- left;
  t.e_right.(n) <- right;
  t.n_pending <- n + 1;
  t.dirty <- true

(* Two-pass stable counting sort (by right, then by left), so each
   finalized row lists its columns in ascending order — the same
   normal form as the legacy sorted adjacency view, which keeps the
   CSR and legacy solvers' tie-breaking aligned.  Sorted rows make
   the dedup a simple adjacent-equality compaction. *)
let finalize t =
  if t.dirty then begin
    let nl = t.n_left and nr = t.n_right and np = t.n_pending in
    let row_start = ensure t.row_start (nl + 1) in
    let col = ensure t.col np in
    let cursor = ensure t.cursor (max nl 1) in
    let rcnt = ensure t.rcnt (max nr 1) in
    let order = ensure t.order np in
    t.row_start <- row_start;
    t.col <- col;
    t.cursor <- cursor;
    t.rcnt <- rcnt;
    t.order <- order;
    (* pass 1: pending-edge ids, stably ordered by right endpoint *)
    Array.fill rcnt 0 nr 0;
    for i = 0 to np - 1 do
      let r = t.e_right.(i) in
      rcnt.(r) <- rcnt.(r) + 1
    done;
    let s = ref 0 in
    for r = 0 to nr - 1 do
      let c = rcnt.(r) in
      rcnt.(r) <- !s;
      s := !s + c
    done;
    for i = 0 to np - 1 do
      let r = t.e_right.(i) in
      order.(rcnt.(r)) <- i;
      rcnt.(r) <- rcnt.(r) + 1
    done;
    (* pass 2: stable by left endpoint; within a row, rights ascend *)
    Array.fill cursor 0 nl 0;
    for i = 0 to np - 1 do
      let l = t.e_left.(i) in
      cursor.(l) <- cursor.(l) + 1
    done;
    row_start.(0) <- 0;
    for l = 0 to nl - 1 do
      row_start.(l + 1) <- row_start.(l) + cursor.(l);
      cursor.(l) <- row_start.(l)
    done;
    for j = 0 to np - 1 do
      let i = order.(j) in
      let l = t.e_left.(i) in
      let pos = cursor.(l) in
      col.(pos) <- t.e_right.(i);
      cursor.(l) <- pos + 1
    done;
    (* in-place dedup of now-adjacent duplicates, compacting [col] and
       rewriting [row_start]; the write pointer never overtakes the
       read pointer because rows only shrink *)
    let w = ref 0 in
    for l = 0 to nl - 1 do
      let rb = row_start.(l) and re = row_start.(l + 1) in
      let row_begin = !w in
      for i = rb to re - 1 do
        let r = col.(i) in
        if !w = row_begin || col.(!w - 1) <> r then begin
          col.(!w) <- r;
          incr w
        end
      done;
      row_start.(l) <- row_begin
    done;
    row_start.(nl) <- !w;
    t.n_edges <- !w;
    t.dirty <- false
  end

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
   place, returning the row's new end: the normal form [finalize]
   produces. *)
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

(* Row-major rebuild: produce the next round's finalized row view in
   one pass over the rows, writing each row straight into [col], then
   sorting and deduplicating it in place.  It never touches the
   pending-edge list or the counting sorts, so the instance is [frozen]
   afterwards: [add_edge] refuses until the next [reset]. *)
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
  t.n_edges <- !w;
  t.n_pending <- 0;
  t.dirty <- false;
  t.frozen <- true

let n_left t = t.n_left
let n_right t = t.n_right

let n_edges t =
  finalize t;
  t.n_edges

let row_start t =
  finalize t;
  t.row_start

let col t =
  finalize t;
  t.col

let right_cap_array t = t.right_cap

let right_cap t r =
  if r < 0 || r >= t.n_right then invalid_arg "Csr.right_cap: right out of range";
  t.right_cap.(r)

let degree t l =
  finalize t;
  if l < 0 || l >= t.n_left then invalid_arg "Csr.degree: left out of range";
  t.row_start.(l + 1) - t.row_start.(l)

let mem t ~left ~right =
  finalize t;
  if left < 0 || left >= t.n_left then invalid_arg "Csr.mem: left out of range";
  let rec scan i = i < t.row_start.(left + 1) && (t.col.(i) = right || scan (i + 1)) in
  scan t.row_start.(left)

let load_adjacency t ?right_cap ~n_right adj =
  let n_left = Array.length adj in
  reset t ~n_left ~n_right;
  (match right_cap with
  | None -> Array.fill t.right_cap 0 n_right 1
  | Some caps ->
      if Array.length caps <> n_right then
        invalid_arg "Csr.load_adjacency: right_cap length mismatch";
      set_right_caps t caps);
  Array.iteri (fun l row -> Array.iter (fun r -> add_edge t ~left:l ~right:r) row) adj;
  finalize t

let of_adjacency ?right_cap ~n_right adj =
  let t = create () in
  load_adjacency t ?right_cap ~n_right adj;
  t

let to_adjacency t =
  finalize t;
  (* rows are already sorted and deduplicated by [finalize] *)
  Array.init t.n_left (fun l ->
      Array.sub t.col t.row_start.(l) (t.row_start.(l + 1) - t.row_start.(l)))
