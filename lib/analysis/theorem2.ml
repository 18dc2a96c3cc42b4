open Vod_model

type t = {
  u_star : float;
  mu : float;
  d : float;
  c : int;
  nu : float;
  u_eff : float;
  d_prime : float;
  k : int;
}

let check ~u_star ~mu =
  if not (Float.is_finite u_star && Float.is_finite mu) then
    invalid_arg "Theorem2: u_star and mu must be finite";
  if u_star <= 1.0 then invalid_arg "Theorem2: requires u_star > 1";
  if mu < 1.0 then invalid_arg "Theorem2: requires mu >= 1"

let mu4 mu = mu ** 4.0

let recommended_c ~u_star ~mu =
  check ~u_star ~mu;
  max 1 (int_of_float (ceil (10.0 *. mu4 mu /. (u_star -. 1.0))))

let derive ?c ~u_star ~mu ~d () =
  check ~u_star ~mu;
  if not (Float.is_finite d) then invalid_arg "Theorem2.derive: d must be finite";
  let c = match c with Some c -> c | None -> recommended_c ~u_star ~mu in
  if float_of_int c <= 4.0 *. mu4 mu /. (u_star -. 1.0) then
    invalid_arg "Theorem2.derive: c must exceed 4 mu^4 / (u_star - 1)";
  let fc = float_of_int c in
  let nu = (1.0 /. (fc +. (2.0 *. mu4 mu) -. 1.0)) -. (1.0 /. (fc +. (3.0 *. mu4 mu))) in
  let u_eff = (fc +. (3.0 *. mu4 mu)) /. fc in
  let d_prime = Float.max d (Float.max u_star (exp 1.0)) in
  let k = int_of_float (ceil ((5.0 /. nu *. log d_prime /. log u_eff) -. 1e-9)) in
  { u_star; mu; d; c; nu; u_eff; d_prime; k }

let catalog_size t ~n = int_of_float (floor (t.d *. float_of_int n /. float_of_int t.k))

let certified_k t ~n ~m ~target_log =
  Obstruction_bound.min_k_for_target ~u_eff:t.u_eff ~nu:t.nu ~n ~c:t.c ~m ~target_log

type compensation = { relay_of : int array; reserved : float array }

let compensate fleet ~u_star =
  let n = Array.length fleet in
  let relay_of = Array.make n (-1) in
  let reserved = Array.make n 0.0 in
  (* Remaining reservable headroom per rich box: u_a - u_star. *)
  let headroom =
    Array.map
      (fun b -> if b.Box.upload >= u_star then b.Box.upload -. u_star else 0.0)
      fleet
  in
  (* Best-fit decreasing: place the largest demands first onto the relay
     with the least sufficient headroom, a classic bin-packing
     heuristic. *)
  let poor =
    Array.to_list fleet
    |> List.filter (fun b -> b.Box.upload < u_star)
    |> List.sort (fun a b -> compare a.Box.upload b.Box.upload)
  in
  let ok = ref true in
  List.iter
    (fun b ->
      if !ok then begin
        let demand = u_star +. 1.0 -. (2.0 *. b.Box.upload) in
        let best = ref (-1) and best_headroom = ref infinity in
        Array.iteri
          (fun a h ->
            if fleet.(a).Box.upload >= u_star && h >= demand -. 1e-9 && h < !best_headroom
            then begin
              best := a;
              best_headroom := h
            end)
          headroom;
        match !best with
        | -1 -> ok := false
        | a ->
            relay_of.(b.Box.id) <- a;
            reserved.(a) <- reserved.(a) +. demand;
            headroom.(a) <- headroom.(a) -. demand
      end)
    poor;
  if !ok then Some { relay_of; reserved } else None

let scalability_lower_bound fleet =
  let n = float_of_int (Array.length fleet) in
  1.0 +. (Box.Fleet.upload_deficit fleet ~threshold:1.0 /. n)
