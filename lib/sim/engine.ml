open Vod_util
open Vod_model

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_rounds = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.rounds"
let obs_demands = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.demands"
let obs_unserved = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.unserved"
let obs_active = Vod_obs.Registry.gauge Vod_obs.Registry.default "engine.active_requests"

let obs_link_failures =
  Vod_obs.Registry.counter Vod_obs.Registry.default "fault.link_failures"

let obs_repair_served =
  Vod_obs.Registry.counter Vod_obs.Registry.default "repair.slot_rounds_served"

type kind = Preload | Postponed | Relayed_preload | Relayed_postponed | Repair_transfer

type request = {
  stripe : int;
  owner : int;
  requester : int;
  issued_at : int;
  kind : kind;
  target : int; (* rounds of service needed to complete (T for user requests) *)
  mutable progress : int;
  mutable last_server : int; (* box that served the previous round, -1 *)
}

type failure_policy = Fail_fast | Continue

type scheduler =
  | Arbitrary
  | Prefer_cache
  | Sticky
  | Greedy_proposals of int
  | Prefer_local
  | Balance_load

type round_report = {
  time : int;
  new_demands : int;
  active_requests : int;
  served : int;
  unserved : int;
  served_from_cache : int;
  rewired : int;
  cross_group : int;
  busy_boxes : int;
  offline_boxes : int;
  faulted : int;
  repair_active : int;
  repair_served : int;
}

exception Defeated of round_report

type t = {
  params : Params.t;
  fleet : Box.t array;
  mutable alloc : Allocation.t;
  compensation : Vod_analysis.Theorem2.compensation option;
  policy : failure_policy;
  preloading : bool;
  scheduler : scheduler;
  topology : Topology.t option;
  online : bool array;
  helper : bool array; (* spare-upload boxes that never take demands *)
  mutable box_epoch : int;
      (* bumped by every mutator a derived per-box view reads (online
         flips, upload factors, helper marks, the allocation) *)
  last_loads : int array;
  cumulative_loads : int array; (* stripe-rounds served per box, ever *)
  capacity : int array; (* matching upload slots per box, net of reservations *)
  upload_factor : float array; (* per-box degradation factor in [0, 1] *)
  mutable link_faults : (time:int -> owner:int -> server:int -> bool) option;
  completed_repairs : (int * int) Vec.t; (* (stripe, dest), completion order *)
  mutable now : int;
  active : request Vec.t;
  scheduled : (int, request Vec.t) Hashtbl.t; (* activation time -> requests *)
  mutable drop_pending : bool;
      (* a box went offline since the last [flush_dropped]: [active] and
         [scheduled] may still hold its requests *)
  recent : request Vec.t array; (* per stripe: recent requests, in issue order *)
  busy_until : int array;
  stripe_counter : int array; (* per video: preload round-robin *)
  swarm : int Vec.t array; (* per video: entry times, ordered *)
  pending : (int * int) Vec.t; (* (box, video) demands for the next step *)
  pending_box : bool array; (* per box: a demand of the box is in [pending] *)
  idle_buf : int array; (* scratch for [idle_boxes] *)
  mutable last_violator : Vod_graph.Bipartite.violator option;
  mutable last_instance : Vod_graph.Bipartite.t option;
  inst : Vod_graph.Bipartite.t;
      (* the one matching instance, rebuilt in place every round *)
  arena : Vod_graph.Arena.t; (* solver scratch, allocated once per engine *)
  online_cap : int array;
      (* per box: [capacity] if online, else 0 — the matching's right
         capacities, kept in step by [set_online]/[set_upload_factor] *)
  sched_rng : Vod_util.Prng.t; (* randomness for the decentralised scheduler *)
  demand_round : int array; (* per box: round of its current demand's first request *)
  awaiting_first : int array; (* per box: stripes of the current demand not yet streaming *)
  startups : int Vec.t; (* realised start-up delays, in rounds *)
  mutable round_sink : (round_report -> unit) option;
      (* per-round telemetry flush hook; observation only, sees every
         report (including a Fail_fast defeat's) before [step] returns *)
}

(* Matching upload slots of box [b]: its nominal upload, scaled by the
   current degradation factor, net of any static relay reservation. *)
let compute_capacity ~params ~fleet ~compensation ~factor b =
  let reserved =
    match compensation with
    | Some comp -> comp.Vod_analysis.Theorem2.reserved.(b)
    | None -> 0.0
  in
  max 0
    (Params.upload_slots params
       (Float.max 0.0 ((fleet.(b).Box.upload *. factor) -. reserved)))

let create ~params ~fleet ~alloc ?compensation ?(policy = Fail_fast)
    ?(preloading = true) ?(scheduler = Arbitrary) ?topology () =
  let n = params.Params.n in
  (match (scheduler, topology) with
  | Prefer_local, None ->
      invalid_arg "Engine.create: Prefer_local requires a topology"
  | _, Some topo ->
      if Topology.n topo <> n then invalid_arg "Engine.create: topology size <> n"
  | _, None -> ());
  if Array.length fleet <> n then invalid_arg "Engine.create: fleet size <> params.n";
  if Allocation.n_boxes alloc <> n then invalid_arg "Engine.create: allocation box count";
  if Catalog.stripes_per_video (Allocation.catalog alloc) <> params.Params.c then
    invalid_arg "Engine.create: allocation stripe count <> params.c";
  let capacity =
    Array.init n (compute_capacity ~params ~fleet ~compensation ~factor:1.0)
  in
  let m = Catalog.videos (Allocation.catalog alloc) in
  {
    params;
    fleet;
    alloc;
    compensation;
    policy;
    preloading;
    scheduler;
    topology;
    online = Array.make n true;
    helper = Array.make n false;
    box_epoch = 0;
    last_loads = Array.make n 0;
    cumulative_loads = Array.make n 0;
    capacity;
    upload_factor = Array.make n 1.0;
    link_faults = None;
    completed_repairs = Vec.create ();
    now = 0;
    active = Vec.create ();
    scheduled = Hashtbl.create 64;
    drop_pending = false;
    recent =
      Array.init
        (Catalog.total_stripes (Allocation.catalog alloc))
        (fun _ -> Vec.create ());
    busy_until = Array.make n 0;
    stripe_counter = Array.make (max m 1) 0;
    swarm = Array.init (max m 1) (fun _ -> Vec.create ());
    pending = Vec.create ();
    pending_box = Array.make n false;
    idle_buf = Array.make n 0;
    sched_rng = Vod_util.Prng.create ~seed:0x7ea ();
    last_violator = None;
    last_instance = None;
    inst = Vod_graph.Bipartite.create ~n_left:0 ~n_right:n ~right_cap:(Array.make n 0);
    arena = Vod_graph.Arena.create ();
    online_cap = Array.copy capacity;
    demand_round = Array.make n 0;
    awaiting_first = Array.make n 0;
    startups = Vec.create ();
    round_sink = None;
  }

let params t = t.params
let fleet t = t.fleet
let alloc t = t.alloc
let now t = t.now
let is_online t b = t.online.(b)
let box_epoch t = t.box_epoch

let set_helper t b flag =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.set_helper: box out of range";
  t.helper.(b) <- flag;
  t.box_epoch <- t.box_epoch + 1

let is_helper t b =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.is_helper: box out of range";
  t.helper.(b)
let last_loads t = Array.copy t.last_loads
let cumulative_loads t = Array.copy t.cumulative_loads
let is_idle t b = t.online.(b) && t.busy_until.(b) <= t.now && not t.pending_box.(b)

(* Helpers are excluded: they are upload-only boxes, so no generator
   should ever draft them as viewers. *)
let idle_boxes t =
  let count = ref 0 in
  for b = 0 to t.params.Params.n - 1 do
    if is_idle t b && not t.helper.(b) then begin
      t.idle_buf.(!count) <- b;
      incr count
    end
  done;
  Array.sub t.idle_buf 0 !count

let window_start t = t.now - t.params.Params.duration

let swarm_size t v =
  let entries = t.swarm.(v) in
  let lo = window_start t in
  (* entries are appended in time order: count the suffix within the
     window (old entries are lazily dropped by rebuilding). *)
  let count = ref 0 in
  Vec.iter (fun e -> if e >= lo then incr count) entries;
  !count

(* Taking a box offline only raises [drop_pending]; the requests it
   owned leave [active] and [scheduled] here, in one pass for every box
   that went offline since the last flush.  No request is ever queued
   for an offline owner (demands and repairs need an online box, and a
   rejoin flushes first), so "owner offline" picks out exactly the
   crashed boxes' requests.  Every reader of [active] or [scheduled]
   flushes first. *)
let flush_dropped t =
  if t.drop_pending then begin
    t.drop_pending <- false;
    let online = t.online in
    Vec.filter_in_place (fun r -> online.(r.owner)) t.active;
    Hashtbl.iter
      (fun _ batch -> Vec.filter_in_place (fun r -> online.(r.owner)) batch)
      t.scheduled
  end

let active_request_count t =
  flush_dropped t;
  Vec.length t.active
let upload_slots_of_box t b = t.capacity.(b)

let set_alloc t alloc =
  let cat = Allocation.catalog alloc and cat0 = Allocation.catalog t.alloc in
  if Allocation.n_boxes alloc <> t.params.Params.n then
    invalid_arg "Engine.set_alloc: allocation box count";
  if
    Catalog.stripes_per_video cat <> Catalog.stripes_per_video cat0
    || Catalog.videos cat <> Catalog.videos cat0
  then invalid_arg "Engine.set_alloc: catalog shape changed";
  t.alloc <- alloc;
  t.box_epoch <- t.box_epoch + 1

let set_upload_factor t ~box ~factor =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.set_upload_factor: box out of range";
  if not (Float.is_finite factor) || factor < 0.0 || factor > 1.0 then
    invalid_arg "Engine.set_upload_factor: factor outside [0, 1]";
  t.upload_factor.(box) <- factor;
  t.capacity.(box) <-
    compute_capacity ~params:t.params ~fleet:t.fleet ~compensation:t.compensation
      ~factor box;
  if t.online.(box) then t.online_cap.(box) <- t.capacity.(box);
  t.box_epoch <- t.box_epoch + 1

let upload_factor t box =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.upload_factor: box out of range";
  t.upload_factor.(box)

let set_link_faults t f = t.link_faults <- f

let relay_of t b =
  match t.compensation with
  | None -> None
  | Some comp ->
      let r = comp.Vod_analysis.Theorem2.relay_of.(b) in
      if r >= 0 then Some r else None

let demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.alloc) in
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.demand: box out of range";
  if video < 0 || video >= m then invalid_arg "Engine.demand: video out of range";
  if t.helper.(box) then invalid_arg "Engine.demand: box is a helper (takes no demands)";
  if not t.online.(box) then invalid_arg "Engine.demand: box is offline";
  if not (is_idle t box) then invalid_arg "Engine.demand: box is busy";
  t.pending_box.(box) <- true;
  Vec.push t.pending (box, video)

type reject_reason = Offline | Helper | Out_of_range
type admit = Admitted | Queued | Rejected of reject_reason

let try_demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.alloc) in
  if box < 0 || box >= t.params.Params.n || video < 0 || video >= m then
    Rejected Out_of_range
  else if t.helper.(box) then Rejected Helper
  else if not t.online.(box) then Rejected Offline
  else if not (is_idle t box) then Queued
  else begin
    t.pending_box.(box) <- true;
    Vec.push t.pending (box, video);
    Admitted
  end

let awaiting_first t box =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.awaiting_first: box out of range";
  t.awaiting_first.(box)

let schedule t time req =
  let bucket =
    match Hashtbl.find_opt t.scheduled time with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Hashtbl.add t.scheduled time v;
        v
  in
  Vec.push bucket req

(* Translate one user demand into its request schedule.  [time] is the
   round at which the preloading request is issued. *)
let emit_requests t ~box ~video ~time =
  let c = t.params.Params.c in
  let cat = Allocation.catalog t.alloc in
  let preload_index = t.stripe_counter.(video) mod c in
  t.stripe_counter.(video) <- t.stripe_counter.(video) + 1;
  let stripe i = Catalog.stripe_id cat ~video ~index:i in
  let make ~kind ~requester ~index ~at =
    schedule t at
      {
        stripe = stripe index;
        owner = box;
        requester;
        issued_at = at;
        kind;
        target = t.params.Params.duration;
        progress = 0;
        last_server = -1;
      }
  in
  Vec.push t.swarm.(video) time;
  t.demand_round.(box) <- time;
  t.awaiting_first.(box) <- c;
  match relay_of t box with
  | None ->
      if t.preloading then begin
        make ~kind:Preload ~requester:box ~index:preload_index ~at:time;
        for j = 1 to c - 1 do
          make ~kind:Postponed ~requester:box ~index:((preload_index + j) mod c)
            ~at:(time + 1)
        done
      end
      else
        (* ablation: naive strategy, all stripes at once *)
        for j = 0 to c - 1 do
          make ~kind:Postponed ~requester:box ~index:j ~at:time
        done;
      t.busy_until.(box) <- time + t.params.Params.duration + 2
  | Some relay ->
      (* Theorem 2 strategy: preload via the relay at t, [cb] direct
         requests at t+2, the rest via the relay at t+3. *)
      let mu4 = t.params.Params.mu ** 4.0 in
      let ub = t.fleet.(box).Box.upload in
      let cb =
        max 0
          (min (c - 1)
             (int_of_float (floor ((float_of_int c *. ub) -. (4.0 *. mu4)))))
      in
      make ~kind:Relayed_preload ~requester:relay ~index:preload_index ~at:time;
      for j = 1 to cb do
        make ~kind:Postponed ~requester:box ~index:((preload_index + j) mod c)
          ~at:(time + 2)
      done;
      for j = cb + 1 to c - 1 do
        make ~kind:Relayed_postponed ~requester:relay ~index:((preload_index + j) mod c)
          ~at:(time + 3)
      done;
      t.busy_until.(box) <- time + t.params.Params.duration + 4

(* Boxes that cache data of a request: the owner always; the relay too
   when it forwarded the stripe (Section 4: r(b) caches what it
   relays).  The relay that caches, or -1. *)
let relay_cacher req =
  match req.kind with
  | Relayed_preload | Relayed_postponed when req.requester <> req.owner -> req.requester
  | Preload | Postponed | Repair_transfer | Relayed_preload | Relayed_postponed -> -1

(* ------------------------------------------------------------------ *)
(* Repair transfers (vod_fault's maintenance controller)               *)
(* ------------------------------------------------------------------ *)

(* A repair transfer is a real request in the connection matching: it
   competes for donor upload slots like any stripe request, but it does
   not make its destination busy, enter the playback-cache window or
   touch the swarm/start-up accounting — it is background maintenance
   traffic, not a viewer. *)
let inject_repair t ~stripe ~dest ~rounds =
  let total = Catalog.total_stripes (Allocation.catalog t.alloc) in
  if stripe < 0 || stripe >= total then
    invalid_arg "Engine.inject_repair: stripe out of range";
  if dest < 0 || dest >= t.params.Params.n then
    invalid_arg "Engine.inject_repair: dest out of range";
  if not t.online.(dest) then invalid_arg "Engine.inject_repair: dest is offline";
  if rounds < 1 then invalid_arg "Engine.inject_repair: rounds < 1";
  let at = t.now + 1 in
  schedule t at
    {
      stripe;
      owner = dest;
      requester = dest;
      issued_at = at;
      kind = Repair_transfer;
      target = rounds;
      progress = 0;
      last_server = -1;
    }

let abort_repair t ~stripe ~dest =
  flush_dropped t;
  let removed = ref false in
  let keeps r =
    let doomed = r.kind = Repair_transfer && r.stripe = stripe && r.owner = dest in
    if doomed then removed := true;
    not doomed
  in
  Vec.filter_in_place keeps t.active;
  Hashtbl.iter (fun _ batch -> Vec.filter_in_place keeps batch) t.scheduled;
  !removed

let drain_completed_repairs t =
  let l = Vec.to_list t.completed_repairs in
  Vec.clear t.completed_repairs;
  l

(* Completed transfers linger in [active] until the next step's retire
   phase; they are no longer in flight, so they are not counted. *)
let repair_in_flight t =
  flush_dropped t;
  let count = ref 0 in
  let tally vec =
    Vec.iter
      (fun r -> if r.kind = Repair_transfer && r.progress < r.target then incr count)
      vec
  in
  tally t.active;
  Hashtbl.iter (fun _ batch -> tally batch) t.scheduled;
  !count

let prune_recent t =
  let lo = window_start t in
  Array.iter
    (fun entries ->
      if Vec.length entries > 0 && (Vec.get entries 0).issued_at < lo then
        Vec.filter_in_place (fun r -> r.issued_at >= lo) entries)
    t.recent;
  (* occasionally compact swarm vectors *)
  Array.iter
    (fun entries ->
      if Vec.length entries > 64 && Vec.get entries 0 < lo then
        Vec.filter_in_place (fun e -> e >= lo) entries)
    t.swarm

(* Per-video request statistics for checking Lemma 2 on live traces:
   for the set X of active requests of each video, the size i = |X|,
   the number i1 of distinct stripes requested, and |B(X)|, the number
   of online boxes possessing data some request needs. *)
let video_request_stats t =
  flush_dropped t;
  let c = t.params.Params.c in
  let by_video = Hashtbl.create 16 in
  Vec.iter
    (fun req ->
      if req.kind = Repair_transfer then ()
      else
      let video = req.stripe / c in
      let entry =
        match Hashtbl.find_opt by_video video with
        | Some e -> e
        | None ->
            let e = (ref 0, Hashtbl.create 8, Bitset.create t.params.Params.n) in
            Hashtbl.add by_video video e;
            e
      in
      let count, stripes, servers = entry in
      incr count;
      Hashtbl.replace stripes req.stripe ();
      Array.iter
        (fun b -> if t.online.(b) then Bitset.add servers b)
        (Allocation.boxes_of_stripe t.alloc req.stripe);
      Vec.iter
        (fun candidate ->
          if candidate.issued_at < req.issued_at && candidate.progress > req.progress
          then begin
            if t.online.(candidate.owner) then Bitset.add servers candidate.owner;
            let relay = relay_cacher candidate in
            if relay >= 0 && t.online.(relay) then Bitset.add servers relay
          end)
        t.recent.(req.stripe))
    t.active;
  Hashtbl.fold
    (fun video (count, stripes, servers) acc ->
      (video, !count, Hashtbl.length stripes, Bitset.cardinal servers) :: acc)
    by_video []

let last_violator t = t.last_violator
let last_instance t = t.last_instance

let startup_delays t = Vec.to_array t.startups
let startup_count t = Vec.length t.startups
let startup_delay t i = Vec.get t.startups i
let set_round_sink t sink = t.round_sink <- sink

(* The user stops watching: drop the box's in-flight and scheduled
   requests and free it immediately.  Its playback cache entries remain
   in [recent] and keep serving the swarm for the rest of the window,
   exactly as a real departure mid-video would. *)
let cancel t box =
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.cancel: box out of range";
  flush_dropped t;
  (* the viewer leaves, but any repair transfer towards the box is
     maintenance traffic and survives the cancellation *)
  let keeps r = r.owner <> box || r.kind = Repair_transfer in
  Vec.filter_in_place keeps t.active;
  Hashtbl.iter (fun _ batch -> Vec.filter_in_place keeps batch) t.scheduled;
  t.busy_until.(box) <- t.now;
  t.awaiting_first.(box) <- 0

let set_online t box online =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.set_online: box out of range";
  if t.online.(box) <> online then t.box_epoch <- t.box_epoch + 1;
  (* a rejoining box must not find its requests from before the crash *)
  if online then flush_dropped t;
  if t.online.(box) && not online then begin
    (* the viewer disappears: its in-flight and scheduled requests are
       dropped at the next [flush_dropped] (its static replicas become
       unavailable through the matching capacity; its cache entries are
       filtered out while offline) *)
    t.drop_pending <- true;
    (* demands registered but not yet turned into requests die with the
       box too, so stateless generators compose with churn plans *)
    if t.pending_box.(box) then begin
      Vec.filter_in_place (fun (pb, _) -> pb <> box) t.pending;
      t.pending_box.(box) <- false
    end;
    t.busy_until.(box) <- t.now
  end;
  t.online.(box) <- online;
  t.online_cap.(box) <- (if online then t.capacity.(box) else 0)

(* Box [b] may serve request [req] this round: it is online, and a
   repair transfer copies from a peer (its destination never serves
   itself). *)
let usable t req b = t.online.(b) && (req.kind <> Repair_transfer || b <> req.owner)

(* One row's edges: the static replicas, then the cache window's owners
   and relays, in order. *)
let emit_row t req emit =
  let replicas = Allocation.boxes_of_stripe t.alloc req.stripe in
  for i = 0 to Array.length replicas - 1 do
    if usable t req replicas.(i) then emit replicas.(i)
  done;
  let window = t.recent.(req.stripe) in
  for i = 0 to Vec.length window - 1 do
    let candidate = Vec.get window i in
    if candidate.issued_at < req.issued_at && candidate.progress > req.progress then begin
      if usable t req candidate.owner then emit candidate.owner;
      let relay = relay_cacher candidate in
      if relay >= 0 && usable t req relay then emit relay
    end
  done

let step t =
  Vod_obs.Span.with_ ~name:"round" @@ fun () ->
  flush_dropped t;
  let time = t.now + 1 in
  t.now <- time;
  Vod_obs.Registry.incr obs_rounds;
  let new_demands =
    Vod_obs.Span.with_ ~name:"demand-admit" @@ fun () ->
    (* 1. Turn pending user demands into scheduled requests.  Demands
       whose box went offline since registration are skipped silently,
       like demands on busy boxes, so stateless generators compose with
       churn plans. *)
    let new_demands = ref 0 in
    Vec.iter
      (fun (box, video) ->
        t.pending_box.(box) <- false;
        if t.online.(box) then begin
          incr new_demands;
          emit_requests t ~box ~video ~time
        end)
      t.pending;
    Vec.clear t.pending;
    let new_demands = !new_demands in
    (* 2. Activate requests scheduled for this round.  Repair transfers
       stay out of the playback-cache window: a partially copied replica
       is not cache content other viewers may stream from. *)
    (match Hashtbl.find_opt t.scheduled time with
    | None -> ()
    | Some batch ->
        Vec.iter
          (fun req ->
            Vec.push t.active req;
            if req.kind <> Repair_transfer then
              Vec.push t.recent.(req.stripe) req)
          batch;
        Hashtbl.remove t.scheduled time);
    (* 3. Retire completed requests and prune stale cache entries. *)
    Vec.filter_in_place (fun r -> r.progress < r.target) t.active;
    prune_recent t;
    new_demands
  in
  Vod_obs.Registry.add obs_demands new_demands;
  (* 4. Build the connection-matching instance (Section 2.2). *)
  let requests, instance =
    Vod_obs.Span.with_ ~name:"build" @@ fun () ->
    let requests = Vec.to_array t.active in
    let n_left = Array.length requests in
    (* one row-major pass refills the persistent instance in place:
       every row is written straight into its CSR column array, and
       once the buffers reach the run's high-water mark the whole build
       phase stops allocating *)
    let instance = t.inst in
    Vod_graph.Bipartite.rebuild instance ~n_left ~right_cap:t.online_cap
      ~fill:(fun l emit -> emit_row t requests.(l) emit);
    t.last_instance <- Some instance;
    (requests, instance)
  in
  let n_left = Array.length requests in
  let n = t.params.Params.n in
  Vod_obs.Registry.set obs_active n_left;
  let of_outcome o = Vod_graph.Bipartite.(o.matched, o.assignment, o.right_load) in
  (* [assignment] and [right_load] may be borrowed from the arena: only
     entries [0 .. n_left - 1] and [0 .. n - 1] are read, before the
     next solve. *)
  let matched, assignment, right_load =
    Vod_obs.Span.with_ ~name:"matching" @@ fun () ->
    match t.scheduler with
    | Arbitrary ->
        let size = Vod_graph.Bipartite.solve_in_arena ~arena:t.arena instance in
        (size, Vod_graph.Arena.assignment t.arena, Vod_graph.Arena.right_load t.arena)
    | Prefer_cache ->
        (* serving from a static replica costs 1, from a cache 0: among
           maximum matchings, minimise the load on the allocation *)
        let cost ~left ~right =
          if Allocation.possesses t.alloc ~box:right ~stripe:requests.(left).stripe
          then 1
          else 0
        in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Sticky ->
        (* keeping last round's connection costs 0, rewiring costs 1:
           among maximum matchings, minimise connection churn *)
        let cost ~left ~right = if requests.(left).last_server = right then 0 else 1 in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Greedy_proposals rounds ->
        (* no global view: persistent connections carry over, then boxes
           negotiate locally for a few rounds for the rest *)
        let warm_start = Array.map (fun req -> req.last_server) requests in
        of_outcome
          (Vod_graph.Bipartite.solve_greedy ~warm_start ~rounds t.sched_rng instance)
    | Prefer_local ->
        (* among maximum matchings, minimise cross-group connections *)
        let topo = Option.get t.topology in
        let cost ~left ~right = Topology.cost topo requests.(left).owner right in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Balance_load ->
        (* among maximum matchings, steer connections towards the boxes
           that have served the least so far *)
        let cost ~left:_ ~right = t.cumulative_loads.(right) in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
  in
  let report =
    Vod_obs.Span.with_ ~name:"account" @@ fun () ->
    (* 5. Progress the served requests and account cache vs allocation.
       A matched connection may still be dropped by a transient link
       fault (the slot was consumed; the data never arrived): the
       request stalls exactly like an unmatched one. *)
    let served_from_cache = ref 0 and rewired = ref 0 and cross_group = ref 0 in
    let user_active = ref 0 and user_served = ref 0 in
    let repair_active = ref 0 and repair_served = ref 0 in
    let faulted = ref 0 in
    Array.iteri
      (fun l req ->
        let is_repair = req.kind = Repair_transfer in
        if is_repair then incr repair_active else incr user_active;
        let server = assignment.(l) in
        if server >= 0 then begin
          let dropped =
            match t.link_faults with
            | Some fault -> fault ~time ~owner:req.owner ~server
            | None -> false
          in
          if dropped then begin
            incr faulted;
            Vod_obs.Registry.incr obs_link_failures
          end
          else begin
            if is_repair then incr repair_served else incr user_served;
            if not is_repair then begin
              (* the cache/rewiring/locality tallies describe viewer
                 connections; maintenance traffic stays out of them *)
              if not (Allocation.possesses t.alloc ~box:server ~stripe:req.stripe)
              then incr served_from_cache;
              if req.last_server >= 0 && req.last_server <> server then incr rewired;
              match t.topology with
              | Some topo ->
                  if not (Topology.same_group topo req.owner server) then
                    incr cross_group
              | None -> ()
            end;
            req.last_server <- server;
            if (not is_repair) && req.progress = 0 then begin
              (* first byte of this stripe: one fewer stream to wait for *)
              t.awaiting_first.(req.owner) <- t.awaiting_first.(req.owner) - 1;
              if t.awaiting_first.(req.owner) = 0 then
                Vec.push t.startups (time - t.demand_round.(req.owner))
            end;
            req.progress <- req.progress + 1;
            if is_repair && req.progress >= req.target then
              (* the replica copy is complete: hand it to the
                 maintenance controller at the next drain *)
              Vec.push t.completed_repairs (req.stripe, req.owner)
          end
        end)
      requests;
    let unserved = !user_active - !user_served in
    Vod_obs.Registry.add obs_unserved unserved;
    Vod_obs.Registry.add obs_repair_served !repair_served;
    (* one pass over the boxes: this round's loads and the box states *)
    let busy = ref 0 and offline = ref 0 in
    let online = t.online and busy_until = t.busy_until and pending_box = t.pending_box in
    let last_loads = t.last_loads and cumulative_loads = t.cumulative_loads in
    for b = 0 to n - 1 do
      let load = right_load.(b) in
      last_loads.(b) <- load;
      cumulative_loads.(b) <- cumulative_loads.(b) + load;
      (* [is_idle], inlined *)
      if not online.(b) then begin
        incr offline;
        incr busy
      end
      else if busy_until.(b) > time || pending_box.(b) then incr busy
    done;
    if matched < n_left then
      t.last_violator <- Vod_graph.Bipartite.hall_violator instance;
    {
      time;
      new_demands;
      active_requests = !user_active;
      served = !user_served;
      unserved;
      served_from_cache = !served_from_cache;
      rewired = !rewired;
      cross_group = !cross_group;
      busy_boxes = !busy;
      offline_boxes = !offline;
      faulted = !faulted;
      repair_active = !repair_active;
      repair_served = !repair_served;
    }
  in
  (match t.round_sink with None -> () | Some sink -> sink report);
  if report.unserved > 0 && t.policy = Fail_fast then raise (Defeated report);
  report

(* Single source of truth for the report's scalar fields: Trace.to_csv
   and pp_report derive their column order from this list, so adding a
   field here is the whole change. *)
let report_fields : (string * (round_report -> int)) list =
  [
    ("time", fun r -> r.time);
    ("new_demands", fun r -> r.new_demands);
    ("active_requests", fun r -> r.active_requests);
    ("served", fun r -> r.served);
    ("unserved", fun r -> r.unserved);
    ("served_from_cache", fun r -> r.served_from_cache);
    ("rewired", fun r -> r.rewired);
    ("cross_group", fun r -> r.cross_group);
    ("busy_boxes", fun r -> r.busy_boxes);
    ("offline_boxes", fun r -> r.offline_boxes);
    ("faulted", fun r -> r.faulted);
    ("repair_active", fun r -> r.repair_active);
    ("repair_served", fun r -> r.repair_served);
  ]

let pp_report fmt r =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map (fun (name, get) -> Printf.sprintf "%s=%d" name (get r)) report_fields))

let run t ~rounds ~demands_for =
  let reports = ref [] in
  for _ = 1 to rounds do
    let wanted = demands_for t (t.now + 1) in
    List.iter (fun (box, video) -> ignore (try_demand t ~box ~video : admit)) wanted;
    reports := step t :: !reports
  done;
  List.rev !reports
