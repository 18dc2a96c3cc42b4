type t = {
  u : float;
  mu : float;
  d : float;
  c : int;
  nu : float;
  u_eff : float;
  d_prime : float;
  k : int;
}

let check_u_mu ~u ~mu =
  if not (Float.is_finite u && Float.is_finite mu) then
    invalid_arg "Theorem1: u and mu must be finite";
  if u <= 1.0 then invalid_arg "Theorem1: requires u > 1";
  if mu < 1.0 then invalid_arg "Theorem1: requires mu >= 1"

let stripe_threshold ~u ~mu = ((2.0 *. mu *. mu) -. 1.0) /. (u -. 1.0)

let recommended_c ~u ~mu =
  check_u_mu ~u ~mu;
  (int_of_float (floor (stripe_threshold ~u ~mu))) + 1

let paper_c ~u ~mu =
  check_u_mu ~u ~mu;
  max 1 (int_of_float (ceil (2.0 *. stripe_threshold ~u ~mu)))

let nu ~u ~mu ~c =
  let fc = float_of_int c in
  if u *. fc <= fc +. (2.0 *. mu *. mu) -. 1.0 then
    invalid_arg "Theorem1.nu: c violates u*c > c + 2 mu^2 - 1";
  (1.0 /. (fc +. (2.0 *. mu *. mu) -. 1.0)) -. (1.0 /. (u *. fc))

let derive ?c ~u ~mu ~d () =
  check_u_mu ~u ~mu;
  if not (Float.is_finite d) then invalid_arg "Theorem1.derive: d must be finite";
  let c = match c with Some c -> c | None -> paper_c ~u ~mu in
  if float_of_int c <= stripe_threshold ~u ~mu then
    invalid_arg "Theorem1.derive: c must exceed (2 mu^2 - 1)/(u - 1)";
  let nu_v = nu ~u ~mu ~c in
  let u_eff = floor ((u *. float_of_int c) +. 1e-9) /. float_of_int c in
  let d_prime = Float.max d (Float.max u (exp 1.0)) in
  (* k >= 5 nu^-1 log d' / log u'.  u' > 1 is guaranteed by the stripe
     condition (u' >= u - 1/c > 1 + (2 mu^2 - 2)/c >= 1). *)
  let k = int_of_float (ceil ((5.0 /. nu_v *. log d_prime /. log u_eff) -. 1e-9)) in
  { u; mu; d; c; nu = nu_v; u_eff; d_prime; k }

let catalog_size t ~n = int_of_float (floor (t.d *. float_of_int n /. float_of_int t.k))

let asymptotic_catalog_factor ~u ~mu =
  if u <= 1.0 then invalid_arg "Theorem1.asymptotic_catalog_factor: requires u > 1";
  (u -. 1.0) ** 2.0 *. log ((u +. 1.0) /. 2.0) /. ((u ** 3.0) *. mu *. mu)

let lemma2_lower_bound ~c ~mu ~i ~i1 =
  if c < 1 then invalid_arg "Theorem1.lemma2_lower_bound: c must be >= 1";
  if mu < 1.0 then invalid_arg "Theorem1.lemma2_lower_bound: mu must be >= 1";
  let fc = float_of_int c and m2 = mu *. mu in
  (float_of_int i -. ((fc +. (2.0 *. m2) -. 1.0) *. float_of_int i1))
  /. (fc +. (2.0 *. (m2 -. 1.0)))

let max_catalog_below_threshold ~d_max ~c =
  if d_max < 0.0 then invalid_arg "Theorem1.max_catalog_below_threshold: negative d_max";
  if not (Float.is_finite d_max) then
    invalid_arg "Theorem1.max_catalog_below_threshold: d_max must be finite";
  if c < 1 then invalid_arg "Theorem1.max_catalog_below_threshold: c must be >= 1";
  int_of_float (floor ((d_max *. float_of_int c) +. 1e-9))
