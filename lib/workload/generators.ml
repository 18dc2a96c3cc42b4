open Vod_util
module Engine = Vod_sim.Engine
module Catalog = Vod_model.Catalog
module Allocation = Vod_model.Allocation

type t = Engine.t -> int -> (int * int) list

let catalog_size sim = Catalog.videos (Allocation.catalog (Engine.alloc sim))

(* Draw [count] distinct idle boxes uniformly: shuffle all the idle
   boxes, in the engine's borrowed buffer, and keep a prefix. *)
let draw_idle g sim count =
  let idle, len = Engine.borrow_idle sim in
  let count = min count len in
  if count = 0 then []
  else begin
    Sample.shuffle_prefix g idle ~len;
    List.init count (fun i -> idle.(i))
  end

let zipf_arrivals g ~rate ~s =
  let zipf = ref None in
  fun sim _time ->
    let m = catalog_size sim in
    if m = 0 then []
    else begin
      let z =
        match !zipf with
        | Some (m', z) when m' = m -> z
        | _ ->
            let z = Sample.Zipf.create ~n:m ~s in
            zipf := Some (m, z);
            z
      in
      let arrivals = Sample.poisson g rate in
      draw_idle g sim arrivals |> List.map (fun b -> (b, Sample.Zipf.draw g z))
    end

let uniform_arrivals g ~rate =
 fun sim _time ->
  let m = catalog_size sim in
  if m = 0 then []
  else
    let arrivals = Sample.poisson g rate in
    draw_idle g sim arrivals |> List.map (fun b -> (b, Prng.int g m))

let flash_crowd g ~video ?(background_rate = 0.0) () =
 fun sim _time ->
  let m = catalog_size sim in
  if m = 0 then []
  else begin
    let mu = (Engine.params sim).Vod_model.Params.mu in
    let size = Engine.swarm_size sim video in
    let target = int_of_float (ceil (float_of_int (max size 1) *. mu)) in
    let growth = max 0 (target - size) in
    let crowd = draw_idle g sim growth |> List.map (fun b -> (b, video)) in
    let background =
      if background_rate <= 0.0 then []
      else begin
        let arrivals = Sample.poisson g background_rate in
        (* avoid double-booking boxes already drafted into the crowd *)
        let taken = List.map fst crowd in
        draw_idle g sim (arrivals + List.length taken)
        |> List.filter (fun b -> not (List.mem b taken))
        |> List.filteri (fun i _ -> i < arrivals)
        |> List.map (fun b -> (b, Prng.int g m))
      end
    in
    crowd @ background
  end

let constant_per_round g ~per_round =
 fun sim _time ->
  let m = catalog_size sim in
  if m = 0 then []
  else draw_idle g sim per_round |> List.map (fun b -> (b, Prng.int g m))

let diurnal g ~peak_rate ~period ~s =
  if period < 1 then invalid_arg "Generators.diurnal: period must be >= 1";
  let zipf = ref None in
  fun sim time ->
    let m = catalog_size sim in
    if m = 0 then []
    else begin
      let z =
        match !zipf with
        | Some (m', z) when m' = m -> z
        | _ ->
            let z = Sample.Zipf.create ~n:m ~s in
            zipf := Some (m, z);
            z
      in
      let phase = 2.0 *. Float.pi *. float_of_int time /. float_of_int period in
      let rate = peak_rate *. (1.0 +. sin phase) /. 2.0 in
      let arrivals = if rate <= 0.0 then 0 else Sample.poisson g rate in
      draw_idle g sim arrivals |> List.map (fun b -> (b, Sample.Zipf.draw g z))
    end

let replay script =
 fun _sim time ->
  List.filter_map (fun (t, b, v) -> if t = time then Some (b, v) else None) script

let nothing _sim _time = []
