(* Multi-window SLO burn rates (see slo.mli for the model).

   Each window is a ring of per-round (bad, total) pairs with running
   sums, so observe is O(1) and burn queries are a division.  Floats
   appear only at query time, derived from integer sums, and every
   serialised float is fixed-point %.4f — the determinism contract of
   the vod-slo/1 stream. *)

type state = Ok | Warning | Breach

type spec = {
  sp_name : string;
  sp_target : float;
  sp_fast : int;
  sp_slow : int;
}

(* the burn a window must reach to count as burning *)
let breach_burn = 1.0

let spec ?(fast = 100) ?(slow = 1000) ~name ~target () =
  if target <= 0.0 || target > 1.0 then invalid_arg "Slo.spec: target outside (0,1]";
  if fast < 1 || slow < 1 then invalid_arg "Slo.spec: window size < 1";
  if fast >= slow then invalid_arg "Slo.spec: fast window must be smaller than slow";
  { sp_name = name; sp_target = target; sp_fast = fast; sp_slow = slow }

type window = {
  w_size : int;
  w_bad : int array;
  w_total : int array;
  mutable w_bad_sum : int;
  mutable w_total_sum : int;
}

type t = {
  t_spec : spec;
  fast : window;
  slow : window;
  mutable t_rounds : int;
  mutable warn_rounds : int;
  mutable breach_rounds : int;
  mutable max_fast : float;
  mutable max_slow : float;
}

let make_window w_size =
  { w_size; w_bad = Array.make w_size 0; w_total = Array.make w_size 0; w_bad_sum = 0; w_total_sum = 0 }

let create sp =
  {
    t_spec = sp;
    fast = make_window sp.sp_fast;
    slow = make_window sp.sp_slow;
    t_rounds = 0;
    warn_rounds = 0;
    breach_rounds = 0;
    max_fast = 0.0;
    max_slow = 0.0;
  }

let spec_of t = t.t_spec
let rounds t = t.t_rounds

let window_burn t w =
  if w.w_total_sum = 0 then 0.0
  else float_of_int w.w_bad_sum /. float_of_int w.w_total_sum /. t.t_spec.sp_target

let burn t which = window_burn t (match which with `Fast -> t.fast | `Slow -> t.slow)

let burns t w = window_burn t w >= breach_burn

let state t =
  let f = burns t t.fast and s = burns t t.slow in
  if f && s then Breach else if f || s then Warning else Ok

let burning_window t =
  let f = burns t t.fast and s = burns t t.slow in
  if f && s then "both" else if f then "fast" else if s then "slow" else "none"

let push_window w ~round ~bad ~total =
  let i = round mod w.w_size in
  if round >= w.w_size then begin
    w.w_bad_sum <- w.w_bad_sum - w.w_bad.(i);
    w.w_total_sum <- w.w_total_sum - w.w_total.(i)
  end;
  w.w_bad.(i) <- bad;
  w.w_total.(i) <- total;
  w.w_bad_sum <- w.w_bad_sum + bad;
  w.w_total_sum <- w.w_total_sum + total

let observe t ~bad ~total =
  let total = max 0 total in
  let bad = min (max 0 bad) total in
  push_window t.fast ~round:t.t_rounds ~bad ~total;
  push_window t.slow ~round:t.t_rounds ~bad ~total;
  t.t_rounds <- t.t_rounds + 1;
  let f = window_burn t t.fast and s = window_burn t t.slow in
  if f > t.max_fast then t.max_fast <- f;
  if s > t.max_slow then t.max_slow <- s;
  (match state t with
  | Ok -> ()
  | Warning -> t.warn_rounds <- t.warn_rounds + 1
  | Breach -> t.breach_rounds <- t.breach_rounds + 1)

let state_name = function Ok -> "ok" | Warning -> "warning" | Breach -> "breach"

type summary = {
  su_name : string;
  su_final : state;
  su_warn_rounds : int;
  su_breach_rounds : int;
  su_max_fast_burn : float;
  su_max_slow_burn : float;
}

let summary t =
  {
    su_name = t.t_spec.sp_name;
    su_final = state t;
    su_warn_rounds = t.warn_rounds;
    su_breach_rounds = t.breach_rounds;
    su_max_fast_burn = t.max_fast;
    su_max_slow_burn = t.max_slow;
  }

let summary_fields su =
  Printf.sprintf
    "\"name\":\"%s\",\"state\":\"%s\",\"warn_rounds\":%d,\"breach_rounds\":%d,\"max_fast_burn\":%.4f,\"max_slow_burn\":%.4f"
    su.su_name (state_name su.su_final) su.su_warn_rounds su.su_breach_rounds su.su_max_fast_burn
    su.su_max_slow_burn

let summary_json su = Printf.sprintf "{%s}" (summary_fields su)
let summary_line su = Printf.sprintf "{\"type\":\"slo-summary\",%s}" (summary_fields su)

let spec_json sp =
  Printf.sprintf "{\"name\":\"%s\",\"target\":%.4f,\"fast\":%d,\"slow\":%d,\"breach_burn\":%.4f}"
    sp.sp_name sp.sp_target sp.sp_fast sp.sp_slow breach_burn

let verdict_json t ~round =
  Printf.sprintf
    "{\"type\":\"slo\",\"t\":%d,\"name\":\"%s\",\"state\":\"%s\",\"window\":\"%s\",\"fast_burn\":%.4f,\"slow_burn\":%.4f}"
    round t.t_spec.sp_name
    (state_name (state t))
    (burning_window t) (window_burn t t.fast) (window_burn t t.slow)
