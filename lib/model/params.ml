type t = { n : int; c : int; mu : float; duration : int }

let make ~n ~c ~mu ~duration =
  if n < 1 then invalid_arg "Params.make: n must be >= 1";
  if c < 1 then invalid_arg "Params.make: c must be >= 1";
  if not (Float.is_finite mu) then invalid_arg "Params.make: mu must be finite";
  if mu < 1.0 then invalid_arg "Params.make: mu must be >= 1.0";
  if duration < 1 then invalid_arg "Params.make: duration must be >= 1";
  { n; c; mu; duration }

let stripe_rate t = 1.0 /. float_of_int t.c

(* floor(u*c) computed robustly: u arrives as a float but is in practice
   a small rational; guard against 0.9999999 artefacts. *)
let upload_slots t u =
  if u < 0.0 then invalid_arg "Params.upload_slots: negative upload";
  int_of_float (floor ((u *. float_of_int t.c) +. 1e-9))

let effective_upload t u = float_of_int (upload_slots t u) /. float_of_int t.c
