open Vod_util

type t = { id : int; upload : float; storage : float }

let make ~id ~upload ~storage =
  if id < 0 then invalid_arg "Box.make: negative id";
  if not (Float.is_finite upload && Float.is_finite storage) then
    invalid_arg "Box.make: non-finite capacity";
  if upload < 0.0 then invalid_arg "Box.make: negative upload";
  if storage < 0.0 then invalid_arg "Box.make: negative storage";
  { id; upload; storage }

let storage_slots ~c t = int_of_float (floor ((t.storage *. float_of_int c) +. 1e-9))


module Fleet = struct
  type box = t
  type nonrec t = t array

  let homogeneous ~n ~u ~d =
    if n < 1 then invalid_arg "Fleet.homogeneous: n must be >= 1";
    Array.init n (fun id -> make ~id ~upload:u ~storage:d)

  let proportional ~n ~uploads ~ratio =
    if Array.length uploads <> n then invalid_arg "Fleet.proportional: uploads length";
    if ratio < 0.0 then invalid_arg "Fleet.proportional: negative ratio";
    Array.init n (fun id -> make ~id ~upload:uploads.(id) ~storage:(ratio *. uploads.(id)))

  let two_class ~n ~rich_fraction ~u_rich ~u_poor ~d =
    if rich_fraction < 0.0 || rich_fraction > 1.0 then
      invalid_arg "Fleet.two_class: rich_fraction outside [0,1]";
    let n_rich = int_of_float (ceil (rich_fraction *. float_of_int n)) in
    Array.init n (fun id ->
        make ~id ~upload:(if id < n_rich then u_rich else u_poor) ~storage:d)

  (* Access-technology shares loosely modelled on a 2009-era European ISP:
     most lines are ADSL with upload well under the video bitrate, a
     minority have FTTH-class uplinks. *)
  let dsl_mix g ~n ~d =
    let classes = [| 0.25; 0.5; 1.0; 2.0 |] in
    let weights = [| 0.25; 0.35; 0.25; 0.15 |] in
    let cat = Sample.Categorical.create weights in
    Array.init n (fun id ->
        make ~id ~upload:classes.(Sample.Categorical.draw g cat) ~storage:d)

  let average_upload fleet =
    Array.fold_left (fun acc b -> acc +. b.upload) 0.0 fleet
    /. float_of_int (Array.length fleet)

  let average_storage fleet =
    Array.fold_left (fun acc b -> acc +. b.storage) 0.0 fleet
    /. float_of_int (Array.length fleet)

  let upload_deficit fleet ~threshold =
    Array.fold_left
      (fun acc b -> if b.upload < threshold then acc +. (threshold -. b.upload) else acc)
      0.0 fleet

  let rich_boxes fleet ~threshold =
    Array.to_list fleet
    |> List.filter_map (fun b -> if b.upload >= threshold then Some b.id else None)

  let poor_boxes fleet ~threshold =
    Array.to_list fleet
    |> List.filter_map (fun b -> if b.upload < threshold then Some b.id else None)

  let is_storage_balanced fleet ~threshold =
    let d = average_storage fleet in
    Array.for_all
      (fun b ->
        b.upload > 0.0
        &&
        let ratio = b.storage /. b.upload in
        ratio >= 2.0 -. 1e-9 && ratio <= (d /. threshold) +. 1e-9)
      fleet
end
