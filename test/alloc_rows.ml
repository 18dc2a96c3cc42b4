(* Copies of an allocation's rows, for tests that compare whole rows. *)
open Vod_model

let boxes_of_stripe t s =
  Array.sub (Allocation.holders t) (Allocation.row_start t s)
    (Allocation.replica_count t s)

let sorted_boxes_of_stripe t s =
  Array.sub (Allocation.sorted_holders t) (Allocation.row_start t s)
    (Allocation.replica_count t s)

let stripes_of_box t b =
  let row = Array.make (Allocation.box_load t b) 0 and i = ref 0 in
  Allocation.iter_stored t b (fun s ->
      row.(!i) <- s;
      incr i);
  row
