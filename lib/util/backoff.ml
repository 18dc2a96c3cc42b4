type policy = Exponential | Decorrelated_jitter

type entry = {
  mutable attempts : int;
  mutable prev : int; (* last delay handed out (jitter state) *)
  mutable next_try : int;
}

type t = {
  policy : policy;
  base : int;
  cap : int;
  budget : int option;
  rng : Prng.t;
  entries : (int, entry) Hashtbl.t;
}

let create ?(seed = 42) ?(policy = Exponential) ?budget ~base ~cap () =
  if base < 1 then invalid_arg "Backoff.create: base must be >= 1";
  if cap < base then invalid_arg "Backoff.create: cap must be >= base";
  (match budget with
  | Some b when b < 1 -> invalid_arg "Backoff.create: budget must be >= 1"
  | _ -> ());
  { policy; base; cap; budget; rng = Prng.create ~seed (); entries = Hashtbl.create 16 }

type verdict = Retry_at of int | Exhausted

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { attempts = 0; prev = t.base; next_try = min_int } in
      Hashtbl.add t.entries key e;
      e

(* The historical repair-controller schedule: base * 2^(a-1), doubling
   stopped at the cap (never multiplied past it, so no overflow). *)
let exponential_delay t a =
  let d = ref t.base in
  for _ = 2 to a do
    if !d < t.cap then d := !d * 2
  done;
  min !d t.cap

let delay t e =
  match t.policy with
  | Exponential -> exponential_delay t e.attempts
  | Decorrelated_jitter ->
      let hi = min t.cap (max t.base (3 * e.prev)) in
      let d = if hi <= t.base then t.base else t.base + Prng.int t.rng (hi - t.base + 1) in
      let d = min d t.cap in
      e.prev <- d;
      d

let record_failure t ~key ~time =
  let e = entry t key in
  e.attempts <- e.attempts + 1;
  (* the jitter draw happens even on the exhausting attempt, so whether
     a caller checks the budget before or after recording never shifts
     the stream for other keys *)
  let d = delay t e in
  e.next_try <- time + d;
  match t.budget with Some b when e.attempts > b -> Exhausted | _ -> Retry_at e.next_try

let attempts t ~key =
  match Hashtbl.find_opt t.entries key with Some e -> e.attempts | None -> 0

let exhausted t ~key =
  match t.budget with None -> false | Some b -> attempts t ~key > b

let ready t ~key ~time =
  match Hashtbl.find_opt t.entries key with
  | None -> true
  | Some e -> (not (exhausted t ~key)) && e.next_try <= time

let reset t ~key = Hashtbl.remove t.entries key
