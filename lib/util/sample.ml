let shuffle_prefix g (a : int array) ~len = Prng.shuffle_prefix g a len

let shuffle g a = shuffle_prefix g a ~len:(Array.length a)

let choose_distinct g ~n ~k =
  if k < 0 || k > n then invalid_arg "Sample.choose_distinct";
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Prng.int g (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let total_weight w =
  let s = Array.fold_left ( +. ) 0.0 w in
  if Array.length w = 0 || s <= 0.0 then invalid_arg "Sample: bad weights";
  s

module Categorical = struct
  (* Vose's alias method: each cell holds a probability and an alias. *)
  type t = { prob : float array; alias : int array }

  let size t = Array.length t.prob

  let create w =
    let s = total_weight w in
    let n = Array.length w in
    let scaled = Array.map (fun x -> x *. float_of_int n /. s) w in
    let prob = Array.make n 0.0 and alias = Array.make n 0 in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri
      (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large)
      scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s_i = Stack.pop small and l_i = Stack.pop large in
      prob.(s_i) <- scaled.(s_i);
      alias.(s_i) <- l_i;
      scaled.(l_i) <- scaled.(l_i) +. scaled.(s_i) -. 1.0;
      if scaled.(l_i) < 1.0 then Stack.push l_i small else Stack.push l_i large
    done;
    Stack.iter (fun i -> prob.(i) <- 1.0) small;
    Stack.iter (fun i -> prob.(i) <- 1.0) large;
    { prob; alias }

  let draw g t =
    let n = Array.length t.prob in
    let i = Prng.int g n in
    if Prng.float g 1.0 < t.prob.(i) then i else t.alias.(i)
end

module Zipf = struct
  type t = { sampler : Categorical.t; pmf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    { sampler = Categorical.create w; pmf = Array.map (fun x -> x /. total) w }

  let draw g t = Categorical.draw g t.sampler
  let pmf t i = t.pmf.(i)
end

let poisson_small g lambda =
  (* Knuth inversion: product of uniforms against exp(-lambda). *)
  let limit = exp (-.lambda) in
  let rec loop k p =
    let p = p *. Prng.float g 1.0 in
    if p <= limit then k else loop (k + 1) p
  in
  loop 0 1.0

let poisson_large g lambda =
  (* PTRS transformed-rejection (Hoermann 1993). *)
  let b = 0.931 +. (2.53 *. sqrt lambda) in
  let a = -0.059 +. (0.02483 *. b) in
  let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
  let v_r = 0.9277 -. (3.6224 /. (b -. 2.0)) in
  let log_lambda = log lambda in
  let rec log_fact k acc = if k <= 1 then acc else log_fact (k - 1) (acc +. log (float_of_int k)) in
  let rec draw () =
    let u = Prng.float g 1.0 -. 0.5 in
    let v = Prng.float g 1.0 in
    let us = 0.5 -. Float.abs u in
    let k = Float.to_int (floor ((((2.0 *. a) /. us) +. b) *. u) +. lambda +. 0.43) in
    if us >= 0.07 && v <= v_r then k
    else if k < 0 || (us < 0.013 && v > us) then draw ()
    else
      let lhs = log (v *. inv_alpha /. ((a /. (us *. us)) +. b)) in
      let rhs = (-.lambda) +. (float_of_int k *. log_lambda) -. log_fact k 0.0 in
      if lhs <= rhs then k else draw ()
  in
  draw ()

let poisson g lambda =
  if lambda < 0.0 then invalid_arg "Sample.poisson: negative rate";
  if lambda = 0.0 then 0
  else if lambda < 10.0 then poisson_small g lambda
  else poisson_large g lambda
