type t = { m : int; c : int }

let create ~m ~c =
  if m < 0 then invalid_arg "Catalog.create: negative m";
  if c < 1 then invalid_arg "Catalog.create: c must be >= 1";
  { m; c }

let videos t = t.m
let stripes_per_video t = t.c
let total_stripes t = t.m * t.c

let stripe_id t ~video ~index =
  if video < 0 || video >= t.m then invalid_arg "Catalog.stripe_id: video out of range";
  if index < 0 || index >= t.c then invalid_arg "Catalog.stripe_id: stripe index out of range";
  (video * t.c) + index

let check_stripe t s =
  if s < 0 || s >= total_stripes t then invalid_arg "Catalog: stripe id out of range"

let video_of_stripe t s =
  check_stripe t s;
  s / t.c

let index_of_stripe t s =
  check_stripe t s;
  s mod t.c

let stripes_of_video t v =
  if v < 0 || v >= t.m then invalid_arg "Catalog.stripes_of_video: video out of range";
  Array.init t.c (fun j -> (v * t.c) + j)

