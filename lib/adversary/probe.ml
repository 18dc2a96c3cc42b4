open Vod_util
open Vod_model

type verdict = Feasible | Infeasible of Vod_graph.Bipartite.violator

let check ~fleet ~alloc ~c ~demands =
  let n = Array.length fleet in
  let cat = Allocation.catalog alloc in
  let m = Catalog.videos cat in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (b, v) ->
      if b < 0 || b >= n then invalid_arg "Probe.check: box out of range";
      if v < 0 || v >= m then invalid_arg "Probe.check: video out of range";
      if Hashtbl.mem seen b then invalid_arg "Probe.check: duplicate box";
      Hashtbl.add seen b ())
    demands;
  let requests =
    List.concat_map (fun (_, v) -> Array.to_list (Catalog.stripes_of_video cat v)) demands
    |> Array.of_list
  in
  let n_left = Array.length requests in
  let right_cap =
    Array.map
      (fun b -> int_of_float (floor ((b.Box.upload *. float_of_int c) +. 1e-9)))
      fleet
  in
  let inst =
    Vod_graph.Bipartite.create ~n_left ~n_right:n ~right_cap ~fill:(fun l emit ->
        Allocation.iter_holders alloc requests.(l) emit)
  in
  match Vod_graph.Bipartite.hall_violator inst with
  | None -> Feasible
  | Some v -> Infeasible v

(* Remaining slack of the holder set of a video given loads already
   pledged by previously assigned demands. *)
let video_slack alloc cat slots pledged v =
  let holders = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Allocation.iter_holders alloc s (fun b ->
          if not (Hashtbl.mem holders b) then Hashtbl.add holders b ()))
    (Catalog.stripes_of_video cat v);
  Hashtbl.fold (fun b () acc -> acc + max 0 (slots.(b) - pledged.(b))) holders 0

let greedy_worst_demands ~fleet ~alloc ~c =
  let n = Array.length fleet in
  let cat = Allocation.catalog alloc in
  let m = Catalog.videos cat in
  let slots =
    Array.map
      (fun b -> int_of_float (floor ((b.Box.upload *. float_of_int c) +. 1e-9)))
      fleet
  in
  let pledged = Array.make n 0 in
  let taken = Array.make m false in
  let demands = ref [] in
  (try
     for b = 0 to n - 1 do
       if List.length !demands >= m then raise Exit;
       (* choose the free video with the least server slack; break ties
          towards videos this box does not store (harder for the
          system). *)
       let best = ref (-1) and best_key = ref max_int in
       for v = 0 to m - 1 do
         if not taken.(v) then begin
           let slack = video_slack alloc cat slots pledged v in
           let stores = Allocation.stores_video alloc ~box:b ~video:v in
           let key = (2 * slack) + (if stores then 1 else 0) in
           if key < !best_key then begin
             best_key := key;
             best := v
           end
         end
       done;
       if !best >= 0 then begin
         taken.(!best) <- true;
         demands := (b, !best) :: !demands;
         (* pledge c stripe-slots spread over the holders of the video,
            approximated by charging each distinct holder once *)
         Array.iter
           (fun s ->
             Allocation.iter_holders alloc s (fun h -> pledged.(h) <- pledged.(h) + 1))
           (Catalog.stripes_of_video cat !best)
       end
     done
   with Exit -> ());
  List.rev !demands

let uncovered_demands ~fleet ~alloc =
  let n = Array.length fleet in
  let used = Hashtbl.create 16 in
  let demands = ref [] in
  for b = 0 to n - 1 do
    let missing = Allocation.videos_not_stored alloc ~box:b in
    (* prefer an uncovered video nobody else demanded yet *)
    let fresh = List.find_opt (fun v -> not (Hashtbl.mem used v)) missing in
    match (fresh, missing) with
    | Some v, _ ->
        Hashtbl.add used v ();
        demands := (b, v) :: !demands
    | None, v :: _ ->
        demands := (b, v) :: !demands
    | None, [] -> ()
  done;
  List.rev !demands

let random_distinct_demands g ~fleet ~alloc =
  let n = Array.length fleet in
  let m = Catalog.videos (Allocation.catalog alloc) in
  if m = 0 then []
  else begin
    let count = min n m in
    let boxes = Sample.choose_distinct g ~n ~k:count in
    let videos = Sample.choose_distinct g ~n:m ~k:count in
    Array.to_list (Array.map2 (fun b v -> (b, v)) boxes videos)
  end

let distinct_videos demands =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun (_, v) ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    demands

let survives_battery g ~fleet ~alloc ~c ~trials =
  let feasible demands = check ~fleet ~alloc ~c ~demands = Feasible in
  feasible (greedy_worst_demands ~fleet ~alloc ~c)
  && (let unc = uncovered_demands ~fleet ~alloc in
      (not (distinct_videos unc)) || feasible unc)
  &&
  let ok = ref true in
  for _ = 1 to trials do
    if !ok then ok := feasible (random_distinct_demands g ~fleet ~alloc)
  done;
  !ok
