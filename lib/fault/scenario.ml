type population =
  | Homogeneous
  | Rich_poor of { rich_fraction : float; u_rich : float; u_poor : float; u_star : float }

type kpi = {
  max_rejection : float option;
  max_startup_p95 : float option;
  max_time_to_repair : int option;
  max_sourcing_share : float option;
  require_recovery : bool;
}

let no_budget =
  {
    max_rejection = None;
    max_startup_p95 = None;
    max_time_to_repair = None;
    max_sourcing_share = None;
    require_recovery = false;
  }

type t = {
  name : string;
  n : int;
  u : float;
  d : float;
  c : int;
  k : int;
  m : int option;
  mu : float;
  duration : int;
  rounds : int;
  seed : int;
  rate : float;
  groups : int option;
  target_k : int;
  budget : int;
  transfer_rounds : int;
  backoff_base : int;
  backoff_cap : int;
  helpers : Helpers.fleet_spec list;
  population : population;
  kpi : kpi;
  events : Plan.spec;
}

let default =
  {
    name = "default";
    n = 64;
    u = 2.0;
    d = 4.0;
    c = 4;
    k = 4;
    m = None;
    mu = 1.2;
    duration = 30;
    rounds = 100;
    seed = 42;
    rate = 2.0;
    groups = None;
    target_k = 3;
    budget = 4;
    transfer_rounds = 5;
    backoff_base = 2;
    backoff_cap = 32;
    helpers = [];
    population = Homogeneous;
    kpi = no_budget;
    events = [];
  }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let int_of tok = int_of_string_opt tok
let float_of tok = float_of_string_opt tok

(* [at <round> <event> <args...>] — box-list events accept several ids. *)
let parse_event ~round ~verb ~args =
  let boxes mk =
    match List.map int_of args with
    | [] -> Error (Printf.sprintf "'%s' needs at least one box id" verb)
    | ids when List.for_all Option.is_some ids ->
        Ok (List.map (fun id -> (round, mk (Option.get id))) ids)
    | _ -> Error (Printf.sprintf "'%s' takes integer box ids" verb)
  in
  match (verb, args) with
  | "crash", _ -> boxes (fun b -> Plan.Crash b)
  | "rejoin", _ -> boxes (fun b -> Plan.Rejoin b)
  | "restore", _ -> boxes (fun b -> Plan.Restore b)
  | ("group-crash" | "group_crash"), _ -> boxes (fun g -> Plan.Group_crash g)
  | ("group-rejoin" | "group_rejoin"), _ -> boxes (fun g -> Plan.Group_rejoin g)
  | "degrade", [ b; f ] -> (
      match (int_of b, float_of f) with
      | Some b, Some f -> Ok [ (round, Plan.Degrade (b, f)) ]
      | _ -> Error "'degrade' takes <box> <factor>")
  | "degrade", _ -> Error "'degrade' takes <box> <factor>"
  | "flaky", [ p ] -> (
      match float_of p with
      | Some p -> Ok [ (round, Plan.Flaky p) ]
      | None -> Error "'flaky' takes <probability>")
  | "flaky", _ -> Error "'flaky' takes <probability>"
  | "flash", [ v; w ] -> (
      match (int_of v, int_of w) with
      | Some v, Some w -> Ok [ (round, Plan.Flash_crowd (v, w)) ]
      | _ -> Error "'flash' takes <video> <viewers>")
  | "flash", _ -> Error "'flash' takes <video> <viewers>"
  | ("helper-join" | "helper_join"), _ -> boxes (fun h -> Plan.Helper_join h)
  | ("helper-leave" | "helper_leave"), _ -> boxes (fun h -> Plan.Helper_leave h)
  | ("group-degrade" | "group_degrade"), [ g; f ] -> (
      match (int_of g, float_of f) with
      | Some g, Some f -> Ok [ (round, Plan.Group_degrade (g, f)) ]
      | _ -> Error "'group-degrade' takes <group> <factor>")
  | ("group-degrade" | "group_degrade"), _ -> Error "'group-degrade' takes <group> <factor>"
  | ("group-restore" | "group_restore"), _ -> boxes (fun g -> Plan.Group_restore g)
  | _ -> Error (Printf.sprintf "unknown event '%s'" verb)

let parse_line t line =
  match tokens line with
  | [] -> Ok t
  | "at" :: round :: verb :: args -> (
      match int_of round with
      | None -> Error "'at' takes an integer round"
      | Some round -> (
          match parse_event ~round ~verb ~args with
          | Ok evs -> Ok { t with events = t.events @ evs }
          | Error _ as err -> err))
  | "helpers" :: args -> (
      match args with
      | [ count; u; d ] -> (
          match (int_of count, float_of u, float_of d) with
          | Some count, Some u, Some d ->
              Ok { t with helpers = t.helpers @ [ { Helpers.count; u; d } ] }
          | _ -> Error "'helpers' takes <count> <upload> <storage>")
      | _ -> Error "'helpers' takes <count> <upload> <storage>")
  | "population" :: args -> (
      match args with
      | [ "homogeneous" ] -> Ok { t with population = Homogeneous }
      | [ "rich-poor"; frac; ur; up; ustar ] -> (
          match (float_of frac, float_of ur, float_of up, float_of ustar) with
          | Some rich_fraction, Some u_rich, Some u_poor, Some u_star ->
              Ok { t with population = Rich_poor { rich_fraction; u_rich; u_poor; u_star } }
          | _ -> Error "'population rich-poor' takes <fraction> <u_rich> <u_poor> <u_star>")
      | _ ->
          Error
            "'population' takes 'homogeneous' or 'rich-poor <fraction> <u_rich> <u_poor> \
             <u_star>'")
  | "kpi" :: args -> (
      let float_kpi v set =
        match float_of v with
        | Some x -> Ok { t with kpi = set t.kpi x }
        | None -> Error "'kpi' budgets take a number"
      in
      match args with
      | [ "max-rejection"; v ] -> float_kpi v (fun k x -> { k with max_rejection = Some x })
      | [ "max-startup-p95"; v ] -> float_kpi v (fun k x -> { k with max_startup_p95 = Some x })
      | [ "max-time-to-repair"; v ] -> (
          match int_of v with
          | Some x -> Ok { t with kpi = { t.kpi with max_time_to_repair = Some x } }
          | None -> Error "'kpi max-time-to-repair' takes an integer")
      | [ "max-sourcing-share"; v ] ->
          float_kpi v (fun k x -> { k with max_sourcing_share = Some x })
      | [ "require-recovery"; v ] -> (
          match bool_of_string_opt v with
          | Some x -> Ok { t with kpi = { t.kpi with require_recovery = x } }
          | None -> Error "'kpi require-recovery' takes true or false")
      | name :: _ -> Error (Printf.sprintf "unknown KPI '%s'" name)
      | [] -> Error "'kpi' takes <name> <value>")
  | [ key; v ] -> (
      let int_field set = match int_of v with Some x -> Ok (set x) | None -> Error ("'" ^ key ^ "' takes an integer") in
      let float_field set =
        match float_of v with Some x -> Ok (set x) | None -> Error ("'" ^ key ^ "' takes a number")
      in
      match key with
      | "n" -> int_field (fun n -> { t with n })
      | "c" -> int_field (fun c -> { t with c })
      | "k" -> int_field (fun k -> { t with k })
      | "m" -> int_field (fun m -> { t with m = Some m })
      | "duration" -> int_field (fun duration -> { t with duration })
      | "rounds" -> int_field (fun rounds -> { t with rounds })
      | "seed" -> int_field (fun seed -> { t with seed })
      | "groups" -> int_field (fun g -> { t with groups = Some g })
      | "target_k" -> int_field (fun target_k -> { t with target_k })
      | "budget" -> int_field (fun budget -> { t with budget })
      | "transfer_rounds" -> int_field (fun transfer_rounds -> { t with transfer_rounds })
      | "u" -> float_field (fun u -> { t with u })
      | "d" -> float_field (fun d -> { t with d })
      | "mu" -> float_field (fun mu -> { t with mu })
      | "rate" -> float_field (fun rate -> { t with rate })
      | _ -> Error (Printf.sprintf "unknown directive '%s'" key))
  | [ "backoff"; base; cap ] -> (
      match (int_of base, int_of cap) with
      | Some backoff_base, Some backoff_cap -> Ok { t with backoff_base; backoff_cap }
      | _ -> Error "'backoff' takes <base> <cap>")
  | key :: _ -> Error (Printf.sprintf "malformed directive '%s'" key)

(* Every float directive, by name.  A NaN passes every [x < bound]
   test below, so finiteness is checked first. *)
let float_fields t =
  [ ("u", t.u); ("d", t.d); ("mu", t.mu); ("rate", t.rate) ]
  @ List.concat_map (fun f -> [ ("helpers u", f.Helpers.u); ("helpers d", f.Helpers.d) ])
      t.helpers
  @ List.filter_map
      (fun (name, v) -> Option.map (fun v -> ("kpi " ^ name, v)) v)
      [
        ("max-rejection", t.kpi.max_rejection);
        ("max-startup-p95", t.kpi.max_startup_p95);
        ("max-sourcing-share", t.kpi.max_sourcing_share);
      ]
  @
  match t.population with
  | Homogeneous -> []
  | Rich_poor { rich_fraction; u_rich; u_poor; u_star } ->
      [
        ("population rich-poor fraction", rich_fraction);
        ("population rich-poor u_rich", u_rich);
        ("population rich-poor u_poor", u_poor);
        ("population rich-poor u_star", u_star);
      ]

(* Room left in an array of [n] base boxes plus every helper box;
   negative when the fleet cannot be allocated.  Stops at the first
   overflow, so huge counts cannot wrap the sum around. *)
let fleet_room t =
  List.fold_left
    (fun room f -> if room < 0 then room else room - max 0 f.Helpers.count)
    (Sys.max_array_length - t.n) t.helpers

let check_ranges t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n < 1 then err "n must be >= 1"
  else if t.c < 1 then err "c must be >= 1"
  else if t.k < 1 then err "k must be >= 1"
  else if (match t.m with Some m -> m < 0 | None -> false) then err "m must be >= 0"
  else if t.u < 0.0 then err "u must be >= 0"
  else if t.d < 0.0 then err "d must be >= 0"
  else if t.mu < 1.0 then err "mu must be >= 1"
  else if t.duration < 1 then err "duration must be >= 1"
  else if t.rounds < 1 then err "rounds must be >= 1"
  else if t.rate < 0.0 then err "rate must be >= 0"
  else if (match t.groups with Some g -> g < 1 || g > t.n | None -> false) then
    err "groups must be in [1, n]"
  else if t.target_k < 1 then err "target_k must be >= 1"
  else if t.budget < 1 then err "budget must be >= 1"
  else if t.transfer_rounds < 1 then err "transfer_rounds must be >= 1"
  else if t.backoff_base < 1 then err "backoff base must be >= 1"
  else if t.backoff_cap < t.backoff_base then err "backoff cap must be >= base"
  else
    match
      List.find_opt (fun f -> f.Helpers.count < 1 || f.Helpers.u < 0.0 || f.Helpers.d < 0.0) t.helpers
    with
    | Some f ->
        err "helper fleet '%d %g %g' needs count >= 1 and non-negative capacities"
          f.Helpers.count f.Helpers.u f.Helpers.d
    | None -> (
        let kpi_bad =
          match t.kpi with
          | { max_rejection = Some v; _ } when v < 0.0 -> Some "max-rejection"
          | { max_startup_p95 = Some v; _ } when v < 0.0 -> Some "max-startup-p95"
          | { max_time_to_repair = Some v; _ } when v < 0 -> Some "max-time-to-repair"
          | { max_sourcing_share = Some v; _ } when v < 0.0 -> Some "max-sourcing-share"
          | _ -> None
        in
        match kpi_bad with
        | Some name -> err "kpi %s must be >= 0" name
        | None -> (
            match t.population with
            | Homogeneous -> Ok t
            | Rich_poor { rich_fraction; u_rich; u_poor; u_star } ->
                if rich_fraction < 0.0 || rich_fraction > 1.0 then
                  err "population rich-poor fraction must be in [0, 1]"
                else if u_rich < 0.0 || u_poor < 0.0 || u_star < 0.0 then
                  err "population rich-poor capacities must be >= 0"
                else Ok t))

let check t =
  match List.find_opt (fun (_, v) -> not (Float.is_finite v)) (float_fields t) with
  | Some (name, v) -> Error (Printf.sprintf "%s must be a finite number, got %g" name v)
  | None when fleet_room t < 0 ->
      Error
        (Printf.sprintf "n plus helper boxes exceeds the largest fleet (%d boxes)"
           Sys.max_array_length)
  | None -> check_ranges t

(* Final whole-scenario validation errors carry the scenario (file)
   name just like line errors do, so a failing [load] always says which
   file is at fault. *)
let parse ~name text =
  let lines = String.split_on_char '\n' text in
  let rec go t lineno = function
    | [] -> (
        match check t with
        | Ok _ as ok -> ok
        | Error msg -> Error (Printf.sprintf "%s: %s" name msg))
    | line :: rest -> (
        match parse_line t line with
        | Ok t -> go t (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "%s:%d: %s" name lineno msg))
  in
  go { default with name } 1 lines

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse ~name:(Filename.basename path) text
  | exception Sys_error msg -> Error msg

let event_line (round, ev) =
  let p = Printf.sprintf in
  match ev with
  | Plan.Crash b -> p "at %d crash %d" round b
  | Plan.Rejoin b -> p "at %d rejoin %d" round b
  | Plan.Group_crash g -> p "at %d group-crash %d" round g
  | Plan.Group_rejoin g -> p "at %d group-rejoin %d" round g
  | Plan.Degrade (b, f) -> p "at %d degrade %d %g" round b f
  | Plan.Restore b -> p "at %d restore %d" round b
  | Plan.Flaky prob -> p "at %d flaky %g" round prob
  | Plan.Flash_crowd (v, w) -> p "at %d flash %d %d" round v w
  | Plan.Helper_join h -> p "at %d helper-join %d" round h
  | Plan.Helper_leave h -> p "at %d helper-leave %d" round h
  | Plan.Group_degrade (g, f) -> p "at %d group-degrade %d %g" round g f
  | Plan.Group_restore g -> p "at %d group-restore %d" round g

let to_text t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# scenario %s" t.name;
  line "n %d" t.n;
  line "u %g" t.u;
  line "d %g" t.d;
  line "c %d" t.c;
  line "k %d" t.k;
  (match t.m with Some m -> line "m %d" m | None -> ());
  line "mu %g" t.mu;
  line "duration %d" t.duration;
  line "rounds %d" t.rounds;
  line "seed %d" t.seed;
  line "rate %g" t.rate;
  (match t.groups with Some g -> line "groups %d" g | None -> ());
  line "target_k %d" t.target_k;
  line "budget %d" t.budget;
  line "transfer_rounds %d" t.transfer_rounds;
  line "backoff %d %d" t.backoff_base t.backoff_cap;
  List.iter (fun f -> line "helpers %d %g %g" f.Helpers.count f.Helpers.u f.Helpers.d) t.helpers;
  (match t.population with
  | Homogeneous -> ()
  | Rich_poor { rich_fraction; u_rich; u_poor; u_star } ->
      line "population rich-poor %g %g %g %g" rich_fraction u_rich u_poor u_star);
  (match t.kpi.max_rejection with Some v -> line "kpi max-rejection %g" v | None -> ());
  (match t.kpi.max_startup_p95 with Some v -> line "kpi max-startup-p95 %g" v | None -> ());
  (match t.kpi.max_time_to_repair with
  | Some v -> line "kpi max-time-to-repair %d" v
  | None -> ());
  (match t.kpi.max_sourcing_share with Some v -> line "kpi max-sourcing-share %g" v | None -> ());
  if t.kpi.require_recovery then line "kpi require-recovery true";
  List.iter (fun ev -> line "%s" (event_line ev)) t.events;
  Buffer.contents b
