module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let percentile_nearest_rank xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile_nearest_rank: empty";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_nearest_rank: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let fn = float_of_int n in
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = Array.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = Array.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  (slope, intercept)

let jain_fairness xs =
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.jain_fairness: negative entry") xs;
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int (Array.length xs) *. s2)
