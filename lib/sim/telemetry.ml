(* The per-round observer (see telemetry.mli).  It only reads the
   report and the engine's startup vector, never mutates the engine. *)

module Slo = Vod_obs.Slo

(* Canonical per-round series, in display order. *)
let series_names =
  [
    "demands";
    "active";
    "served";
    "unserved";
    "from_cache";
    "rewired";
    "busy";
    "offline";
    "faulted";
    "repair_active";
    "repair_served";
  ]

let sample (r : Engine.round_report) = function
  | "demands" -> r.Engine.new_demands
  | "active" -> r.Engine.active_requests
  | "served" -> r.Engine.served
  | "unserved" -> r.Engine.unserved
  | "from_cache" -> r.Engine.served_from_cache
  | "rewired" -> r.Engine.rewired
  | "busy" -> r.Engine.busy_boxes
  | "offline" -> r.Engine.offline_boxes
  | "faulted" -> r.Engine.faulted
  | "repair_active" -> r.Engine.repair_active
  | "repair_served" -> r.Engine.repair_served
  | name -> invalid_arg ("Telemetry.sample: unknown series " ^ name)

let rejection (r : Engine.round_report) = (r.unserved, r.served + r.unserved)
let sourcing (r : Engine.round_report) = (r.served - r.served_from_cache, r.served)

type metric = Counts of (Engine.round_report -> int * int) | Startup_over of float

type t = {
  engine : Engine.t;
  evs : (Slo.t * metric) array;
  states : Slo.state array;  (** Each SLO's state after the last round. *)
  bad : int array;  (** Each SLO's last round, as fed. *)
  total : int array;
  buf : Buffer.t;
  mutable startups_seen : int;  (** Cursor into the engine's startup delays. *)
  mutable first : bool;
}

let line b str =
  Buffer.add_string b str;
  Buffer.add_char b '\n'

let create ?meta engine specs =
  let evs =
    List.filter_map
      (fun (name, target, metric) ->
        if target > 0.0 && target <= 1.0 then
          Some (Slo.create (Slo.spec ~name ~target ()), metric)
        else None)
      specs
    |> Array.of_list
  in
  let buf = Buffer.create 512 in
  let specs = List.map (fun (ev, _) -> Slo.spec_of ev) (Array.to_list evs) in
  Option.iter (fun meta -> line buf (meta specs)) meta;
  {
    engine;
    evs;
    states = Array.map (fun (ev, _) -> Slo.state ev) evs;
    bad = Array.make (Array.length evs) 0;
    total = Array.make (Array.length evs) 0;
    buf;
    startups_seen = 0;
    first = true;
  }

let observe t (report : Engine.round_report) =
  let engine = t.engine in
  let startup_count = Engine.startup_count engine in
  Array.iteri
    (fun i (ev, metric) ->
      let bad, total =
        match metric with
        | Counts f -> f report
        | Startup_over limit ->
            let bad = ref 0 in
            for j = t.startups_seen to startup_count - 1 do
              if float_of_int (Engine.startup_delay engine j) > limit then incr bad
            done;
            (!bad, startup_count - t.startups_seen)
      in
      t.bad.(i) <- bad;
      t.total.(i) <- total;
      Slo.observe ev ~bad ~total)
    t.evs;
  t.startups_seen <- startup_count;
  (* verdict lines on state transitions (and the first round) *)
  Array.iteri
    (fun i (ev, _) ->
      let state = Slo.state ev in
      if t.first || state <> t.states.(i) then
        line t.buf (Slo.verdict_json ev ~round:report.Engine.time);
      t.states.(i) <- state)
    t.evs;
  t.first <- false

let evaluators t = Array.to_list (Array.map fst t.evs)
let last_round t = List.init (Array.length t.evs) (fun i -> (t.bad.(i), t.total.(i)))

let finish t =
  let summaries = List.map Slo.summary (evaluators t) in
  List.iter (fun su -> line t.buf (Slo.summary_line su)) summaries;
  (summaries, Buffer.contents t.buf)
