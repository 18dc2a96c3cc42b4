(* Two families of rows, each over one flat [int array]: the stripe rows
   (the boxes holding each stripe, in placement order in [holders] and
   ascending at the same slots of [sorted]) and the box rows (the
   stripes each box stores, ascending, in [stored]).  A row is the slice
   [start.(i) .. start.(i) + len.(i) - 1].

   The build packs the rows below [*_packed] with no room to spare, and
   the slots above them are the overflow region.  An install into a
   packed row, or into a tail row whose length is a power of two, first
   moves the row to the overflow region's top, into a block of the
   smallest power of two above its length; the array doubles when the
   region runs out.  A moved row's old slots are not reused. *)
type t = {
  cat : Catalog.t;
  n_boxes : int;
  row_start : int array;
  row_len : int array;
  mutable holders : int array;
  mutable sorted : int array;
  mutable rows_top : int;
  rows_packed : int;
  box_start : int array;
  box_len : int array;
  mutable stored : int array;
  mutable boxes_top : int;
  boxes_packed : int;
}

(* The overflow region is 1/32 of the packed rows: over chaos-outage's
   32 scenario seeds (n = 8192, k = 4, 24576 stripes, one group of 256
   boxes crashed), a run's installs moved rows into at most 1.04% of the
   stripe rows' slots and 2.08% of the box rows'. *)
let capacity_for slots = slots + (slots / 32)

(* [fn] names the caller in error messages *)
let build fn ~catalog ~n_boxes ~start ~len holders =
  let fail msg = invalid_arg (Printf.sprintf "Allocation.%s: %s" fn msg) in
  let total = Catalog.total_stripes catalog in
  if Array.length start <> total || Array.length len <> total then
    fail "one row per stripe";
  if n_boxes < 1 then fail "n_boxes must be >= 1";
  (* rows in stripe order, disjoint, inside [holders]; [last_stripe.(b)]:
     the last stripe [b] was listed in, so a repeat within one row finds
     its own *)
  let last_stripe = Array.make n_boxes (-1) and box_len = Array.make n_boxes 0 in
  let prev_end = ref 0 in
  for s = 0 to total - 1 do
    let o = start.(s) and l = len.(s) in
    if o < !prev_end || l < 0 || o + l > Array.length holders then
      fail "rows overlap or leave the array";
    prev_end := o + l;
    for i = o to o + l - 1 do
      let b = holders.(i) in
      if b < 0 || b >= n_boxes then fail "box out of range";
      if last_stripe.(b) = s then fail "duplicate replica in one box";
      last_stripe.(b) <- s;
      box_len.(b) <- box_len.(b) + 1
    done
  done;
  (* both transposes by counting: the stripes enter the box rows in
     ascending order, and then the boxes enter each stripe's sorted row
     in ascending order *)
  let box_start = Array.make n_boxes 0 in
  let packed = ref 0 in
  for b = 0 to n_boxes - 1 do
    box_start.(b) <- !packed;
    packed := !packed + box_len.(b)
  done;
  let stored = Array.make (capacity_for !packed) 0 in
  Array.fill box_len 0 n_boxes 0;
  for s = 0 to total - 1 do
    for i = start.(s) to start.(s) + len.(s) - 1 do
      let b = holders.(i) in
      stored.(box_start.(b) + box_len.(b)) <- s;
      box_len.(b) <- box_len.(b) + 1
    done
  done;
  let sorted = Array.make (Array.length holders) 0 and filled = Array.make total 0 in
  for b = 0 to n_boxes - 1 do
    for i = box_start.(b) to box_start.(b) + box_len.(b) - 1 do
      let s = stored.(i) in
      sorted.(start.(s) + filled.(s)) <- b;
      filled.(s) <- filled.(s) + 1
    done
  done;
  {
    cat = catalog;
    n_boxes;
    row_start = start;
    row_len = len;
    holders;
    sorted;
    rows_top = !prev_end;
    rows_packed = !prev_end;
    box_start;
    box_len;
    stored;
    boxes_top = !packed;
    boxes_packed = !packed;
  }

let of_rows = build "of_rows"

let of_replica_lists ~catalog ~n_boxes rows =
  let total = Catalog.total_stripes catalog in
  if Array.length rows <> total then
    invalid_arg "Allocation.of_replica_lists: outer length must be total stripe count";
  let start = Array.make total 0 and len = Array.map Array.length rows in
  for s = 1 to total - 1 do
    start.(s) <- start.(s - 1) + len.(s - 1)
  done;
  let slots = if total = 0 then 0 else start.(total - 1) + len.(total - 1) in
  let holders = Array.make (capacity_for slots) 0 in
  Array.iteri (fun s row -> Array.blit row 0 holders start.(s) len.(s)) rows;
  build "of_replica_lists" ~catalog ~n_boxes ~start ~len holders

let copy t =
  {
    t with
    row_start = Array.copy t.row_start;
    row_len = Array.copy t.row_len;
    holders = Array.copy t.holders;
    sorted = Array.copy t.sorted;
    box_start = Array.copy t.box_start;
    box_len = Array.copy t.box_len;
    stored = Array.copy t.stored;
  }

(* Is the row full: a packed row, or a tail row of a power-of-two length
   (its block's size)? *)
let full ~packed ~start ~len = (start : int) < packed || len land (len - 1) = 0

(* The smallest power of two above [len]: a moved row's block. *)
let block len =
  let p = ref 1 in
  while !p <= len do
    p := 2 * !p
  done;
  !p

(* [a] with room for [need] more slots above [top]. *)
let ensure a ~top ~need =
  if top + need <= Array.length a then a
  else begin
    let b = Array.make (max (2 * Array.length a) (top + need)) 0 in
    Array.blit a 0 b 0 top;
    b
  end

(* [a.(o) .. a.(o + len - 1)] is ascending without [x] and [a.(o + len)]
   is free: put [x] in order.  (The [int] annotations here and in
   [mem_sorted] keep the compares off the polymorphic [caml_compare].) *)
let insert_sorted (a : int array) o len (x : int) =
  let i = ref (o + len) in
  while !i > o && a.(!i - 1) > x do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- x

let mem_sorted (a : int array) o len (x : int) =
  let i = ref o and stop = o + len in
  while !i < stop && a.(!i) < x do
    incr i
  done;
  !i < stop && a.(!i) = x

let possesses t ~box ~stripe =
  mem_sorted t.sorted t.row_start.(stripe) t.row_len.(stripe) box

let install t stripe box =
  let len = t.row_len.(stripe) in
  if full ~packed:t.rows_packed ~start:t.row_start.(stripe) ~len then begin
    let top = t.rows_top and need = block len and o = t.row_start.(stripe) in
    t.holders <- ensure t.holders ~top ~need;
    t.sorted <- ensure t.sorted ~top ~need;
    Array.blit t.holders o t.holders top len;
    Array.blit t.sorted o t.sorted top len;
    t.row_start.(stripe) <- top;
    t.rows_top <- top + need
  end;
  let o = t.row_start.(stripe) in
  t.holders.(o + len) <- box;
  insert_sorted t.sorted o len box;
  t.row_len.(stripe) <- len + 1;
  let len = t.box_len.(box) in
  if full ~packed:t.boxes_packed ~start:t.box_start.(box) ~len then begin
    let top = t.boxes_top and need = block len in
    t.stored <- ensure t.stored ~top ~need;
    Array.blit t.stored t.box_start.(box) t.stored top len;
    t.box_start.(box) <- top;
    t.boxes_top <- top + need
  end;
  insert_sorted t.stored t.box_start.(box) len stripe;
  t.box_len.(box) <- len + 1

let add_replicas t pairs =
  (* every pair is checked before the first is installed *)
  let rec check seen = function
    | [] -> ()
    | ((stripe, box) as pair) :: rest ->
        if stripe < 0 || stripe >= Array.length t.row_len then
          invalid_arg "Allocation.add_replicas: stripe out of range";
        if box < 0 || box >= t.n_boxes then
          invalid_arg "Allocation.add_replicas: box out of range";
        if possesses t ~box ~stripe || List.mem pair seen then
          invalid_arg "Allocation.add_replicas: duplicate replica in one box";
        check (pair :: seen) rest
  in
  check [] pairs;
  List.iter (fun (stripe, box) -> install t stripe box) pairs

let catalog t = t.cat
let n_boxes t = t.n_boxes
let holders t = t.holders
let sorted_holders t = t.sorted
let row_start t s = t.row_start.(s)
let replica_count t s = t.row_len.(s)
let box_load t b = t.box_len.(b)

let iter_holders t s f =
  let a = t.holders and o = t.row_start.(s) in
  for i = o to o + t.row_len.(s) - 1 do
    f a.(i)
  done

let iter_stored t b f =
  let a = t.stored and o = t.box_start.(b) in
  for i = o to o + t.box_len.(b) - 1 do
    f a.(i)
  done

let stores_video t ~box ~video =
  let c = Catalog.stripes_per_video t.cat in
  let rec from j =
    j < c && (possesses t ~box ~stripe:((video * c) + j) || from (j + 1))
  in
  from 0

let videos_not_stored t ~box =
  let c = Catalog.stripes_per_video t.cat in
  let stored = Array.make (Catalog.videos t.cat) false in
  iter_stored t box (fun s -> stored.(s / c) <- true);
  let missing = ref [] in
  for v = Catalog.videos t.cat - 1 downto 0 do
    if not stored.(v) then missing := v :: !missing
  done;
  !missing

let validate t ~fleet ~c =
  if Array.length fleet <> t.n_boxes then Error "fleet size mismatch"
  else begin
    let problem = ref None in
    Array.iteri
      (fun b box ->
        let slots = Box.storage_slots ~c box in
        let load = box_load t b in
        if load > slots && !problem = None then
          problem := Some (Printf.sprintf "box %d stores %d replicas but has %d slots" b load slots))
      fleet;
    for s = 0 to Catalog.total_stripes t.cat - 1 do
      if replica_count t s = 0 && !problem = None then
        problem := Some (Printf.sprintf "stripe %d has no replica" s)
    done;
    match !problem with None -> Ok () | Some msg -> Error msg
  end

let storage_utilisation t ~fleet ~c =
  let used = ref 0 and avail = ref 0 in
  Array.iteri
    (fun b box ->
      used := !used + box_load t b;
      avail := !avail + Box.storage_slots ~c box)
    fleet;
  if !avail = 0 then 0.0 else float_of_int !used /. float_of_int !avail
