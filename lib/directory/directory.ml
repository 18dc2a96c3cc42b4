type t = {
  mutable ring : Ring.t;
  store : (int, (int, int list) Hashtbl.t) Hashtbl.t; (* node -> stripe -> holders *)
  mutable total_hops : int;
  mutable total_lookups : int;
}

let create ~nodes =
  { ring = Ring.create ~nodes; store = Hashtbl.create 64; total_hops = 0; total_lookups = 0 }

let ring t = t.ring

let table_of t node =
  match Hashtbl.find_opt t.store node with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.store node tbl;
      tbl

let route t ~origin ~stripe =
  let responsible, hops = Ring.lookup t.ring ~origin ~key:stripe in
  t.total_hops <- t.total_hops + hops;
  t.total_lookups <- t.total_lookups + 1;
  (responsible, hops)

let publish t ~origin ~stripe ~holder =
  let responsible, hops = route t ~origin ~stripe in
  let tbl = table_of t responsible in
  let current = Option.value ~default:[] (Hashtbl.find_opt tbl stripe) in
  if not (List.mem holder current) then Hashtbl.replace tbl stripe (holder :: current);
  hops

let publish_allocation t ~iter_holders ~total_stripes =
  for s = 0 to total_stripes - 1 do
    iter_holders s (fun holder -> ignore (publish t ~origin:holder ~stripe:s ~holder))
  done

let resolve t ~origin ~stripe =
  let responsible, hops = route t ~origin ~stripe in
  let holders =
    match Hashtbl.find_opt t.store responsible with
    | None -> []
    | Some tbl -> Option.value ~default:[] (Hashtbl.find_opt tbl stripe)
  in
  (holders, hops)

let unpublish t ~origin ~stripe ~holder =
  let responsible, hops = route t ~origin ~stripe in
  (match Hashtbl.find_opt t.store responsible with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl stripe with
      | None -> ()
      | Some holders ->
          let remaining = List.filter (fun h -> h <> holder) holders in
          if remaining = [] then Hashtbl.remove tbl stripe
          else Hashtbl.replace tbl stripe remaining));
  hops

(* Re-home every stored key onto the node currently responsible for it
   (used after membership changes: only misplaced keys move). *)
let rehome t =
  let moves = ref [] in
  Hashtbl.iter
    (fun node tbl ->
      Hashtbl.iter
        (fun stripe holders ->
          let responsible = Ring.successor_of_key t.ring stripe in
          if responsible <> node then moves := (node, stripe, holders) :: !moves)
        tbl)
    t.store;
  List.iter
    (fun (node, stripe, holders) ->
      let tbl = table_of t node in
      Hashtbl.remove tbl stripe;
      let responsible = Ring.successor_of_key t.ring stripe in
      let tbl' = table_of t responsible in
      let current = Option.value ~default:[] (Hashtbl.find_opt tbl' stripe) in
      let merged =
        List.fold_left (fun acc h -> if List.mem h acc then acc else h :: acc) current holders
      in
      Hashtbl.replace tbl' stripe merged)
    !moves

let node_leave t node =
  t.ring <- Ring.leave t.ring node;
  rehome t;
  Hashtbl.remove t.store node

let node_join t node =
  t.ring <- Ring.join t.ring node;
  rehome t

let stored_keys t node =
  match Hashtbl.find_opt t.store node with None -> 0 | Some tbl -> Hashtbl.length tbl

let mean_lookup_hops t =
  if t.total_lookups = 0 then 0.0
  else float_of_int t.total_hops /. float_of_int t.total_lookups
