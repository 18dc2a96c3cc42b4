open Vod_util

type t = {
  cat : Catalog.t;
  n_boxes : int;
  boxes_of_stripe : int array array;
  sorted_boxes : int array array; (* per stripe, [boxes_of_stripe]'s row ascending *)
  stripes_of_box : int array array;
}

let of_replica_lists ~catalog ~n_boxes boxes_of_stripe =
  if Array.length boxes_of_stripe <> Catalog.total_stripes catalog then
    invalid_arg "Allocation.of_replica_lists: outer length must be total stripe count";
  if n_boxes < 1 then invalid_arg "Allocation.of_replica_lists: n_boxes must be >= 1";
  (* [last_stripe.(b)]: the last stripe [b] was listed in; the stripes
     are read in order, so a repeat within one row finds its own *)
  let last_stripe = Array.make n_boxes (-1) and load = Array.make n_boxes 0 in
  Array.iteri
    (fun stripe replicas ->
      Array.iter
        (fun b ->
          if b < 0 || b >= n_boxes then
            invalid_arg "Allocation.of_replica_lists: box out of range";
          if last_stripe.(b) = stripe then
            invalid_arg "Allocation.of_replica_lists: duplicate replica in one box";
          last_stripe.(b) <- stripe;
          load.(b) <- load.(b) + 1)
        replicas)
    boxes_of_stripe;
  (* both transposes by counting: the stripes go into the box rows in
     ascending order, and each stripe's row gets its boxes in ascending
     order *)
  let stripes_of_box = Array.map (fun l -> Array.make l 0) load in
  Array.fill load 0 n_boxes 0;
  Array.iteri
    (fun stripe replicas ->
      Array.iter
        (fun b ->
          stripes_of_box.(b).(load.(b)) <- stripe;
          load.(b) <- load.(b) + 1)
        replicas)
    boxes_of_stripe;
  let sorted_boxes =
    Array.map (fun row -> Array.make (Array.length row) 0) boxes_of_stripe
  in
  let filled = Array.make (Array.length boxes_of_stripe) 0 in
  Array.iteri
    (fun b stripes ->
      Array.iter
        (fun s ->
          sorted_boxes.(s).(filled.(s)) <- b;
          filled.(s) <- filled.(s) + 1)
        stripes)
    stripes_of_box;
  {
    cat = catalog;
    n_boxes;
    boxes_of_stripe = Array.map Array.copy boxes_of_stripe;
    sorted_boxes;
    stripes_of_box;
  }

(* [row] ascending and without [x]: the row with [x] inserted in order *)
let insert_sorted row x =
  let len = Array.length row in
  let i = ref 0 in
  while !i < len && row.(!i) < x do
    incr i
  done;
  let out = Array.make (len + 1) x in
  Array.blit row 0 out 0 !i;
  Array.blit row !i out (!i + 1) (len - !i);
  out

let add_replicas t pairs =
  let boxes_of_stripe = Array.copy t.boxes_of_stripe in
  let sorted_boxes = Array.copy t.sorted_boxes in
  let stripes_of_box = Array.copy t.stripes_of_box in
  List.iter
    (fun (stripe, box) ->
      if stripe < 0 || stripe >= Array.length boxes_of_stripe then
        invalid_arg "Allocation.add_replicas: stripe out of range";
      if box < 0 || box >= t.n_boxes then
        invalid_arg "Allocation.add_replicas: box out of range";
      let row = boxes_of_stripe.(stripe) in
      if Int_array.mem box row then
        invalid_arg "Allocation.add_replicas: duplicate replica in one box";
      boxes_of_stripe.(stripe) <- Array.append row [| box |];
      sorted_boxes.(stripe) <- insert_sorted sorted_boxes.(stripe) box;
      stripes_of_box.(box) <- insert_sorted stripes_of_box.(box) stripe)
    pairs;
  { t with boxes_of_stripe; sorted_boxes; stripes_of_box }

let catalog t = t.cat
let n_boxes t = t.n_boxes

let boxes_of_stripe t s =
  if s < 0 || s >= Array.length t.boxes_of_stripe then
    invalid_arg "Allocation.boxes_of_stripe: out of range";
  t.boxes_of_stripe.(s)

let sorted_boxes_of_stripe t s =
  if s < 0 || s >= Array.length t.sorted_boxes then
    invalid_arg "Allocation.sorted_boxes_of_stripe: out of range";
  t.sorted_boxes.(s)

let stripes_of_box t b =
  if b < 0 || b >= t.n_boxes then invalid_arg "Allocation.stripes_of_box: out of range";
  t.stripes_of_box.(b)

let replica_count t s = Array.length (boxes_of_stripe t s)
let box_load t b = Array.length (stripes_of_box t b)

(* [Int_array.mem], not [Array.mem]: this runs once per served request *)
let possesses t ~box ~stripe = Int_array.mem box (sorted_boxes_of_stripe t stripe)

let stores_video t ~box ~video =
  Array.exists (fun s -> possesses t ~box ~stripe:s) (Catalog.stripes_of_video t.cat video)

let videos_not_stored t ~box =
  let c = Catalog.stripes_per_video t.cat in
  let stored = Array.make (Catalog.videos t.cat) false in
  Array.iter (fun s -> stored.(s / c) <- true) (stripes_of_box t box);
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
