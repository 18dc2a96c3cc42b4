(* Scratch-buffer arena of the CSR Dinic core.  See the mli for the
   slab discipline; the implementation is just named growable int-array
   cells. *)

type slab = { mutable buf : int array }

type t = {
  assignment : slab;
  right_load : slab;
  queue : slab;
  right_queue : slab;
  level : slab;
  it_left : slab;
  it_right : slab;
  matched_edge : slab;
  t_row_start : slab;
  t_packed : slab;
  mutable reached : int;
  mutable reached_right : int;
}

let slab () = { buf = [||] }

let create () =
  {
    assignment = slab ();
    right_load = slab ();
    queue = slab ();
    right_queue = slab ();
    level = slab ();
    it_left = slab ();
    it_right = slab ();
    matched_edge = slab ();
    t_row_start = slab ();
    t_packed = slab ();
    reached = 0;
    reached_right = 0;
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

let assignment t = t.assignment.buf
let right_load t = t.right_load.buf

let words t =
  List.fold_left
    (fun acc s -> acc + Array.length s.buf)
    0
    [
      t.assignment; t.right_load; t.queue; t.right_queue; t.level; t.it_left;
      t.it_right; t.matched_edge; t.t_row_start; t.t_packed;
    ]
