open Vod_util

type arc = int

type t = {
  n : int;
  first : int array; (* head of the arc list of each node, -1 if none *)
  next : int Vec.t; (* arc -> next arc of the same source *)
  dst : int Vec.t;
  src : int Vec.t;
  cap : int Vec.t; (* remaining (residual) capacity per arc *)
  original_cap : int Vec.t;
}

let create ?(arc_hint = 0) n =
  if n < 0 then invalid_arg "Flow_network.create: negative node count";
  if arc_hint < 0 then invalid_arg "Flow_network.create: negative arc hint";
  let sized () =
    let v = Vec.create () in
    Vec.ensure_capacity v arc_hint 0;
    v
  in
  {
    n;
    first = Array.make (max n 1) (-1);
    next = sized ();
    dst = sized ();
    src = sized ();
    cap = sized ();
    original_cap = sized ();
  }

let clear t =
  Array.fill t.first 0 (Array.length t.first) (-1);
  Vec.clear t.next;
  Vec.clear t.dst;
  Vec.clear t.src;
  Vec.clear t.cap;
  Vec.clear t.original_cap

let node_count t = t.n
let arc_count t = Vec.length t.dst

let add_arc t ~src ~dst ~cap =
  let a = Vec.length t.dst in
  Vec.push t.dst dst;
  Vec.push t.src src;
  Vec.push t.cap cap;
  Vec.push t.original_cap cap;
  Vec.push t.next t.first.(src);
  t.first.(src) <- a;
  a

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Flow_network.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Flow_network.add_edge: endpoint out of range";
  let a = add_arc t ~src ~dst ~cap in
  let (_ : int) = add_arc t ~src:dst ~dst:src ~cap:0 in
  a

let arc_src t a = Vec.get t.src a
let arc_dst t a = Vec.get t.dst a
let capacity t a = Vec.get t.original_cap a
let residual t a = Vec.get t.cap a
let flow t a = capacity t a - residual t a

let push t a x =
  Vec.set t.cap a (Vec.get t.cap a - x);
  Vec.set t.cap (a lxor 1) (Vec.get t.cap (a lxor 1) + x)

let reset_flow t =
  for a = 0 to arc_count t - 1 do
    Vec.set t.cap a (Vec.get t.original_cap a)
  done

let iter_arcs_from t v f =
  let a = ref t.first.(v) in
  while !a >= 0 do
    f !a;
    a := Vec.get t.next !a
  done

let fold_out_flow t v =
  let acc = ref 0 in
  iter_arcs_from t v (fun a -> if a land 1 = 0 then acc := !acc + flow t a);
  (* incoming forward arcs show up as flow on our reverse arcs *)
  iter_arcs_from t v (fun a -> if a land 1 = 1 then acc := !acc + flow t a);
  !acc

let check_conservation t ~src ~sink =
  let ok = ref true in
  for a = 0 to arc_count t - 1 do
    if a land 1 = 0 then begin
      let f = flow t a in
      if f < 0 || f > capacity t a then ok := false
    end
  done;
  for v = 0 to t.n - 1 do
    if v <> src && v <> sink && fold_out_flow t v <> 0 then ok := false
  done;
  !ok
