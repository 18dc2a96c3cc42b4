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

let[@inline] is_repair = function
  | Repair_transfer -> true
  | Preload | Postponed | Relayed_preload | Relayed_postponed -> false

(* A growable buffer of slot ids.  The request sets hold ints only, so
   they stay monomorphic arrays the compiler reads without a tag test. *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf () = { data = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (max 8 (2 * b.len)) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* The request store: one slot per stripe request, its fields in
   parallel arrays indexed by the slot id.  A slot is held by the
   active/scheduled set ([queued]) and, for viewer requests once
   activated, by its stripe's cache window ([windowed]); it returns to
   the free list when it holds neither.  The arrays grow by doubling to
   the run's high-water mark and never shrink. *)
module Store = struct
  type t = {
    mutable stripe : int array;
    mutable owner : int array; (* the box that plays (or, for repairs, stores) *)
    mutable requester : int array; (* the owner or its relay *)
    mutable issued_at : int array; (* the activation round *)
    mutable kind : kind array;
    mutable target : int array; (* rounds of service needed to complete *)
    mutable progress : int array;
    mutable last_server : int array; (* box that served the previous round, -1 *)
    mutable next_in_window : int array; (* the stripe window's next slot, -1 *)
    mutable holds : int array; (* [queued] lor [windowed] *)
    mutable free : int array; (* released slots, a stack *)
    mutable n_free : int;
    mutable minted : int; (* slots 0 .. minted - 1 have been handed out *)
  }

  let queued = 1
  let windowed = 2

  let create () =
    {
      stripe = [||];
      owner = [||];
      requester = [||];
      issued_at = [||];
      kind = [||];
      target = [||];
      progress = [||];
      last_server = [||];
      next_in_window = [||];
      holds = [||];
      free = [||];
      n_free = 0;
      minted = 0;
    }

  let grow st =
    let cap = max 64 (2 * st.minted) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    st.stripe <- extend st.stripe 0;
    st.owner <- extend st.owner 0;
    st.requester <- extend st.requester 0;
    st.issued_at <- extend st.issued_at 0;
    st.kind <- extend st.kind Preload;
    st.target <- extend st.target 0;
    st.progress <- extend st.progress 0;
    st.last_server <- extend st.last_server (-1);
    st.next_in_window <- extend st.next_in_window (-1);
    st.holds <- extend st.holds 0;
    st.free <- extend st.free 0

  let alloc st ~stripe ~owner ~requester ~issued_at ~kind ~target =
    let s =
      if st.n_free > 0 then begin
        st.n_free <- st.n_free - 1;
        st.free.(st.n_free)
      end
      else begin
        if st.minted = Array.length st.stripe then grow st;
        st.minted <- st.minted + 1;
        st.minted - 1
      end
    in
    st.stripe.(s) <- stripe;
    st.owner.(s) <- owner;
    st.requester.(s) <- requester;
    st.issued_at.(s) <- issued_at;
    st.kind.(s) <- kind;
    st.target.(s) <- target;
    st.progress.(s) <- 0;
    st.last_server.(s) <- -1;
    st.next_in_window.(s) <- -1;
    st.holds.(s) <- queued;
    s

  let release st s hold =
    let h = st.holds.(s) land lnot hold in
    st.holds.(s) <- h;
    if h = 0 then begin
      st.free.(st.n_free) <- s;
      st.n_free <- st.n_free + 1
    end

  let live st = st.minted - st.n_free

  (* Boxes that cache data of a request: the owner always; the relay too
     when it forwarded the stripe (Section 4: r(b) caches what it
     relays).  The relay that caches, or -1. *)
  let relay_cacher st s =
    match st.kind.(s) with
    | (Relayed_preload | Relayed_postponed) when st.requester.(s) <> st.owner.(s) ->
        st.requester.(s)
    | Preload | Postponed | Repair_transfer | Relayed_preload | Relayed_postponed -> -1
end

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

(* Requests are scheduled at most three rounds ahead (a relayed demand's
   tail at t+3), so four buckets indexed by [round land 3] hold them. *)
let schedule_ring = 4

type t = {
  params : Params.t;
  fleet : Box.t array;
  alloc : Allocation.t; (* installs ([install]) change it in place *)
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
  store : Store.t;
  active : ibuf; (* the matching's rows, in activation order *)
  scheduled : ibuf array; (* [schedule_ring] buckets by activation round *)
  mutable drop_pending : bool;
      (* a box went offline since the last [flush_dropped]: [active] and
         [scheduled] may still hold its requests *)
  window_head : int array; (* per stripe: the cache window's oldest slot, -1 *)
  window_tail : int array; (* per stripe: its newest slot, -1 *)
  expiry : ibuf array;
      (* T + 1 buckets by activation round: the slots that entered a
         window at round r leave it at the start of round r + T + 1 *)
  busy_until : int array;
  idle_from : int array;
      (* per box: the round from which it may be drafted as a viewer
         ([busy_until]), or [max_int] while it is offline, has a demand
         pending or is a helper *)
  stripe_counter : int array; (* per video: preload round-robin *)
  swarm : ibuf array; (* per video: entry rounds, ascending *)
  pending : (int * int) Vec.t; (* (box, video) demands for the next step *)
  pending_box : bool array; (* per box: a demand of the box is in [pending] *)
  idle_buf : int array; (* the idle draw's output, lent by [borrow_idle] *)
  mutable last_violator : Vod_graph.Bipartite.violator option;
  mutable last_instance : Vod_graph.Bipartite.t option;
  mutable deferred_epoch : int;
      (* the [box_epoch] at the close of a round the walk seated whole,
         whose instance [last_instance] builds on demand; -1 when no
         build is due *)
  faulted_rows : ibuf; (* this round's seated rows that a link fault dropped *)
  inst : Vod_graph.Bipartite.t;
      (* the one matching instance, rebuilt in place on the rounds that
         need it *)
  arena : Vod_graph.Arena.t; (* solver scratch, allocated once per engine *)
  online_cap : int array;
      (* per box: [capacity] if online, else 0 — the matching's right
         capacities, kept in step by [set_online]/[set_upload_factor] *)
  seats : int array; (* the walk's free seats per box, from [online_cap] *)
  sched_rng : Vod_util.Prng.t; (* randomness for the decentralised scheduler *)
  demand_round : int array; (* per box: round of its current demand's first request *)
  awaiting_first : int array; (* per box: stripes of the current demand not yet streaming *)
  startups : int Vec.t; (* realised start-up delays, in rounds *)
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
  let stripes = Catalog.total_stripes (Allocation.catalog alloc) in
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
    store = Store.create ();
    active = ibuf ();
    scheduled = Array.init schedule_ring (fun _ -> ibuf ());
    drop_pending = false;
    window_head = Array.make stripes (-1);
    window_tail = Array.make stripes (-1);
    expiry = Array.init (params.Params.duration + 1) (fun _ -> ibuf ());
    busy_until = Array.make n 0;
    idle_from = Array.make n 0;
    stripe_counter = Array.make (max m 1) 0;
    swarm = Array.init (max m 1) (fun _ -> ibuf ());
    pending = Vec.create ();
    pending_box = Array.make n false;
    idle_buf = Array.make n 0;
    sched_rng = Vod_util.Prng.create ~seed:0x7ea ();
    last_violator = None;
    last_instance = None;
    deferred_epoch = -1;
    faulted_rows = ibuf ();
    inst =
      Vod_graph.Bipartite.create ~n_left:0 ~n_right:n ~right_cap:(Array.make n 0)
        ~fill:(fun _ _ -> ());
    arena = Vod_graph.Arena.create ();
    online_cap = Array.copy capacity;
    seats = Array.make n 0;
    demand_round = Array.make n 0;
    awaiting_first = Array.make n 0;
    startups = Vec.create ();
  }

let params t = t.params
let fleet t = t.fleet
let alloc t = t.alloc
let now t = t.now
let is_online t b = t.online.(b)
let box_epoch t = t.box_epoch

(* Every mutator of [online], [pending_box], [helper] or [busy_until]
   calls this for the box it touched. *)
let refresh_idle t b =
  t.idle_from.(b) <-
    (if t.online.(b) && (not t.pending_box.(b)) && not t.helper.(b) then t.busy_until.(b)
     else max_int)

let set_helper t b flag =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.set_helper: box out of range";
  t.helper.(b) <- flag;
  refresh_idle t b;
  t.box_epoch <- t.box_epoch + 1

let is_helper t b =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.is_helper: box out of range";
  t.helper.(b)
let last_loads t = Array.copy t.last_loads
let cumulative_loads t = Array.copy t.cumulative_loads
let is_idle t b = t.online.(b) && t.busy_until.(b) <= t.now && not t.pending_box.(b)

(* The draftable boxes, ascending, into [idle_buf]: one compare per box.
   Helpers are excluded ([idle_from] is [max_int] for them): they are
   upload-only boxes, so no generator should ever draft them as
   viewers. *)
let fill_idle t =
  let now = t.now and idle_from = t.idle_from and buf = t.idle_buf in
  let count = ref 0 in
  for b = 0 to Array.length idle_from - 1 do
    (* branch-free: the slot is overwritten unless the box is idle *)
    buf.(!count) <- b;
    count := !count + Bool.to_int (idle_from.(b) <= now)
  done;
  !count

let borrow_idle t =
  let len = fill_idle t in
  (t.idle_buf, len)

let idle_boxes t = Array.sub t.idle_buf 0 (fill_idle t)

let window_start t = t.now - t.params.Params.duration

(* First index of [b.data.(0 .. b.len - 1)] (ascending) holding a value
   [>= lo]. *)
let lower_bound b lo =
  let l = ref 0 and h = ref b.len in
  while !l < !h do
    let mid = (!l + !h) lsr 1 in
    if b.data.(mid) < lo then l := mid + 1 else h := mid
  done;
  !l

let swarm_size t v =
  let entries = t.swarm.(v) in
  entries.len - lower_bound entries (window_start t)

(* Entries leave a swarm vector when it is full and about to grow: the
   prefix older than the window is dropped first. *)
let join_swarm t video time =
  let entries = t.swarm.(video) in
  if entries.len = Array.length entries.data then begin
    let stale = lower_bound entries (window_start t) in
    if stale > 0 then begin
      Array.blit entries.data stale entries.data 0 (entries.len - stale);
      entries.len <- entries.len - stale
    end
  end;
  push entries time

(* Keep the slots of [b] that [keep] accepts, in place and in order;
   the others leave the active/scheduled set.  True when one left. *)
let filter_queued st b keep =
  let kept = ref 0 in
  for i = 0 to b.len - 1 do
    let s = b.data.(i) in
    if keep s then begin
      b.data.(!kept) <- s;
      incr kept
    end
    else Store.release st s Store.queued
  done;
  let removed = !kept < b.len in
  b.len <- !kept;
  removed

(* Remove from [active] and every [scheduled] bucket the slots [keep]
   rejects; true when one was removed.  A removal may change the last
   round's rows, so its deferred instance can no longer be built. *)
let drop_requests t keep =
  let removed =
    Array.fold_left
      (fun removed b -> filter_queued t.store b keep || removed)
      (filter_queued t.store t.active keep)
      t.scheduled
  in
  if removed then t.deferred_epoch <- -1;
  removed

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
    let online = t.online and owner = t.store.Store.owner in
    ignore (drop_requests t (fun s -> online.(owner.(s))) : bool)
  end

let active_request_count t =
  flush_dropped t;
  t.active.len
let upload_slots_of_box t b = t.capacity.(b)

let install t pairs =
  Allocation.add_replicas t.alloc pairs;
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

let register_demand t ~box ~video =
  t.pending_box.(box) <- true;
  refresh_idle t box;
  Vec.push t.pending (box, video)

let demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.alloc) in
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.demand: box out of range";
  if video < 0 || video >= m then invalid_arg "Engine.demand: video out of range";
  if t.helper.(box) then invalid_arg "Engine.demand: box is a helper (takes no demands)";
  if not t.online.(box) then invalid_arg "Engine.demand: box is offline";
  if not (is_idle t box) then invalid_arg "Engine.demand: box is busy";
  register_demand t ~box ~video

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
    register_demand t ~box ~video;
    Admitted
  end

let awaiting_first t box =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.awaiting_first: box out of range";
  t.awaiting_first.(box)

(* A new request, queued for activation at round [at]. *)
let schedule t ~at ~kind ~stripe ~owner ~requester ~target =
  let offset = at - t.now in
  if offset < 0 || offset >= schedule_ring then
    invalid_arg "Engine.schedule: activation round outside the schedule ring";
  let s = Store.alloc t.store ~stripe ~owner ~requester ~issued_at:at ~kind ~target in
  push t.scheduled.(at land (schedule_ring - 1)) s

(* Translate one user demand into its request schedule.  [time] is the
   round at which the preloading request is issued. *)
let emit_requests t ~box ~video ~time =
  let c = t.params.Params.c in
  let cat = Allocation.catalog t.alloc in
  let preload_index = t.stripe_counter.(video) mod c in
  t.stripe_counter.(video) <- t.stripe_counter.(video) + 1;
  let make ~kind ~requester ~index ~at =
    schedule t ~at ~kind
      ~stripe:(Catalog.stripe_id cat ~video ~index)
      ~owner:box ~requester ~target:t.params.Params.duration
  in
  join_swarm t video time;
  t.demand_round.(box) <- time;
  t.awaiting_first.(box) <- c;
  (match relay_of t box with
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
      t.busy_until.(box) <- time + t.params.Params.duration + 4);
  refresh_idle t box

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
  schedule t ~at:(t.now + 1) ~kind:Repair_transfer ~stripe ~owner:dest ~requester:dest
    ~target:rounds

let abort_repair t ~stripe ~dest =
  flush_dropped t;
  let st = t.store in
  drop_requests t (fun s ->
      not (is_repair st.Store.kind.(s) && st.Store.stripe.(s) = stripe && st.Store.owner.(s) = dest))

let drain_completed_repairs t =
  let l = Vec.to_list t.completed_repairs in
  Vec.clear t.completed_repairs;
  l

(* Completed transfers linger in [active] until the next step's retire
   phase; they are no longer in flight, so they are not counted. *)
let repair_in_flight t =
  flush_dropped t;
  let st = t.store in
  let count = ref 0 in
  let tally b =
    for i = 0 to b.len - 1 do
      let s = b.data.(i) in
      if is_repair st.Store.kind.(s) && st.Store.progress.(s) < st.Store.target.(s) then
        incr count
    done
  in
  tally t.active;
  Array.iter tally t.scheduled;
  !count

(* The slots that entered a cache window at round [time - T - 1] leave
   it now.  Windows are FIFOs in activation order, so each is its
   stripe's oldest entry. *)
let expire_windows t time =
  let st = t.store in
  let bucket = t.expiry.(time mod Array.length t.expiry) in
  for i = 0 to bucket.len - 1 do
    let s = bucket.data.(i) in
    let stripe = st.Store.stripe.(s) in
    assert (t.window_head.(stripe) = s);
    let next = st.Store.next_in_window.(s) in
    t.window_head.(stripe) <- next;
    if next < 0 then t.window_tail.(stripe) <- -1;
    Store.release st s Store.windowed
  done;
  bucket.len <- 0

(* Slot [s] becomes its stripe window's newest entry at round [time]. *)
let enter_window t s time =
  let st = t.store in
  let stripe = st.Store.stripe.(s) in
  let tail = t.window_tail.(stripe) in
  if tail < 0 then t.window_head.(stripe) <- s else st.Store.next_in_window.(tail) <- s;
  t.window_tail.(stripe) <- s;
  st.Store.next_in_window.(s) <- -1;
  st.Store.holds.(s) <- st.Store.holds.(s) lor Store.windowed;
  push t.expiry.(time mod Array.length t.expiry) s

(* Per-video request statistics for checking Lemma 2 on live traces:
   for the set X of active requests of each video, the size i = |X|,
   the number i1 of distinct stripes requested, and |B(X)|, the number
   of online boxes possessing data some request needs. *)
let video_request_stats t =
  flush_dropped t;
  let c = t.params.Params.c in
  let st = t.store in
  let by_video = Hashtbl.create 16 in
  for i = 0 to t.active.len - 1 do
    let s = t.active.data.(i) in
    if not (is_repair st.Store.kind.(s)) then begin
      let stripe = st.Store.stripe.(s) in
      let video = stripe / c in
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
      Hashtbl.replace stripes stripe ();
      Allocation.iter_holders t.alloc stripe (fun b ->
          if t.online.(b) then Bitset.add servers b);
      let cand = ref t.window_head.(stripe) in
      while !cand >= 0 do
        let w = !cand in
        if st.Store.issued_at.(w) < st.Store.issued_at.(s)
           && st.Store.progress.(w) > st.Store.progress.(s)
        then begin
          let owner = st.Store.owner.(w) in
          if t.online.(owner) then Bitset.add servers owner;
          let relay = Store.relay_cacher st w in
          if relay >= 0 && t.online.(relay) then Bitset.add servers relay
        end;
        cand := st.Store.next_in_window.(w)
      done
    end
  done;
  Hashtbl.fold
    (fun video (count, stripes, servers) acc ->
      (video, !count, Hashtbl.length stripes, Bitset.cardinal servers) :: acc)
    by_video []

let last_violator t = t.last_violator

let startup_delays t = Vec.to_array t.startups
let startup_count t = Vec.length t.startups
let startup_delay t i = Vec.get t.startups i

(* The user stops watching: drop the box's in-flight and scheduled
   requests and free it immediately.  Its playback cache entries remain
   in their windows and keep serving the swarm until they expire,
   exactly as a real departure mid-video would. *)
let cancel t box =
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.cancel: box out of range";
  flush_dropped t;
  let st = t.store in
  (* the viewer leaves, but any repair transfer towards the box is
     maintenance traffic and survives the cancellation *)
  ignore
    (drop_requests t (fun s -> st.Store.owner.(s) <> box || is_repair st.Store.kind.(s))
      : bool);
  t.busy_until.(box) <- t.now;
  refresh_idle t box;
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
  refresh_idle t box;
  t.online_cap.(box) <- (if online then t.capacity.(box) else 0)

(* One row's edges: the static replicas, then the cache window's owners
   and relays, in order.  A box serves the row only while online, and a
   repair transfer's destination never serves itself. *)
let emit_row t s emit =
  let st = t.store and online = t.online in
  let stripe = st.Store.stripe.(s) in
  let skip = if is_repair st.Store.kind.(s) then st.Store.owner.(s) else -1 in
  let replicas = Allocation.sorted_holders t.alloc in
  let o = Allocation.row_start t.alloc stripe in
  for i = o to o + Allocation.replica_count t.alloc stripe - 1 do
    let b = replicas.(i) in
    if online.(b) && b <> skip then emit b
  done;
  let issued_at = st.Store.issued_at and progress = st.Store.progress in
  let issued = issued_at.(s) and position = progress.(s) in
  (* the window is in activation order: no entry from [issued] on
     is ahead of this request *)
  let cand = ref t.window_head.(stripe) in
  while !cand >= 0 && issued_at.(!cand) < issued do
    let w = !cand in
    if progress.(w) > position then begin
      let owner = st.Store.owner.(w) in
      if online.(owner) && owner <> skip then emit owner;
      let relay = Store.relay_cacher st w in
      if relay >= 0 && online.(relay) && relay <> skip then emit relay
    end;
    cand := st.Store.next_in_window.(w)
  done

(* The instance of a round the walk seated whole, built on the first
   call after it: nothing that shapes the rows has moved since (a
   [box_epoch] change or a dropped request cancels the build).  The
   rows are those of the step, but the account has since advanced
   every row a link fault did not drop, and [emit_row] compares
   window positions: those advances are undone for the build and
   redone after it. *)
let last_instance t =
  if t.deferred_epoch >= 0 then begin
    if t.deferred_epoch = t.box_epoch then begin
      let progress = t.store.Store.progress in
      let rows = t.active.data and n_left = t.active.len in
      let advance d =
        for l = 0 to n_left - 1 do
          progress.(rows.(l)) <- progress.(rows.(l)) + d
        done;
        for i = 0 to t.faulted_rows.len - 1 do
          let s = t.faulted_rows.data.(i) in
          progress.(s) <- progress.(s) - d
        done
      in
      advance (-1);
      Vod_graph.Bipartite.rebuild t.inst ~n_left ~right_cap:t.online_cap
        ~fill:(fun l emit -> emit_row t rows.(l) emit);
      advance 1;
      t.last_instance <- Some t.inst
    end;
    t.deferred_epoch <- -1
  end;
  t.last_instance

(* Greedy first-fit straight off the candidate lists: each row, in
   order, takes its lowest-id candidate with a free seat.  That is the
   seat [Dinic.solve_csr]'s greedy pass gives it from the sorted,
   deduplicated CSR row, since neither duplicates nor emit order change
   a minimum.  The candidates are [emit_row]'s, read in place: a box
   has a free seat exactly when its [seats] entry (its [online_cap]
   less the rows seated on it, so 0 while offline) is positive, the
   first such replica of the ascending row is the row's lowest, and
   the window can only undercut it.  The result lands in the arena's
   [assignment] and [right_load] slabs, where the solver would leave
   it.  True when every row is seated; the walk stops at the first row
   left free.  A closed round still sizes the instance and the solver
   scratch for its rows, as a build would, from an upper bound on the
   edges (every replica and window candidate, online or not): the
   buffers then follow the run's size whether or not a round builds,
   so a fallback round grows nothing and what a run allocates does
   not hang on which rounds fall back. *)
let seat_rows t rows n_left =
  let n = t.params.Params.n and arena = t.arena in
  let load = Vod_graph.Arena.ints arena.Vod_graph.Arena.right_load (max n 1) in
  let assignment = Vod_graph.Arena.ints arena.Vod_graph.Arena.assignment (max n_left 1) in
  Array.fill load 0 n 0;
  let seats = t.seats in
  Array.blit t.online_cap 0 seats 0 n;
  let st = t.store and alloc = t.alloc in
  let replicas = Allocation.sorted_holders alloc in
  let stripe_of = st.Store.stripe and kind = st.Store.kind in
  let owner_of = st.Store.owner in
  let issued_at = st.Store.issued_at and progress = st.Store.progress in
  let next_in_window = st.Store.next_in_window in
  let edges = ref 0 and l = ref 0 and best = ref 0 in
  while
    !l < n_left
    && begin
         let s = rows.(!l) in
         let stripe = stripe_of.(s) in
         let skip = if is_repair kind.(s) then owner_of.(s) else -1 in
         let i = ref (Allocation.row_start alloc stripe) in
         let stop = !i + Allocation.replica_count alloc stripe in
         edges := !edges + (stop - !i);
         best := max_int;
         while !i < stop do
           let b = replicas.(!i) in
           if seats.(b) > 0 && b <> skip then begin
             best := b;
             i := stop
           end
           else incr i
         done;
         let issued = issued_at.(s) and position = progress.(s) in
         let cand = ref t.window_head.(stripe) in
         while !cand >= 0 && issued_at.(!cand) < issued do
           let w = !cand in
           if progress.(w) > position then begin
             let owner = owner_of.(w) in
             incr edges;
             if owner < !best && seats.(owner) > 0 && owner <> skip then best := owner;
             let relay = Store.relay_cacher st w in
             if relay >= 0 then begin
               incr edges;
               if relay < !best && seats.(relay) > 0 && relay <> skip then best := relay
             end
           end;
           cand := next_in_window.(w)
         done;
         !best < max_int
       end
  do
    let b = !best in
    assignment.(!l) <- b;
    load.(b) <- load.(b) + 1;
    seats.(b) <- seats.(b) - 1;
    incr l
  done;
  let closed = !l = n_left in
  if closed then Vod_graph.Bipartite.reserve ~arena t.inst ~n_left ~n_edges:!edges;
  closed

(* Completed requests leave the active set (their slots stay in their
   windows until expiry). *)
let retire t =
  let progress = t.store.Store.progress and target = t.store.Store.target in
  ignore (filter_queued t.store t.active (fun s -> progress.(s) < target.(s)) : bool)

(* The rounds the walk cannot close, and every round of a cost-aware
   or proposal scheduler: build the connection-matching instance and
   solve it.  A deficient matching leaves its Hall certificate in
   [last_violator]. *)
let solve_instance t rows n_left =
  let st = t.store in
  let instance =
    Vod_obs.Span.with_ ~name:"build" @@ fun () ->
    (* one row-major pass refills the persistent instance in place:
       every row is written straight into its CSR column array, and
       once the buffers reach the run's high-water mark the whole build
       phase stops allocating *)
    Vod_graph.Bipartite.rebuild t.inst ~n_left ~right_cap:t.online_cap
      ~fill:(fun l emit -> emit_row t rows.(l) emit);
    t.last_instance <- Some t.inst;
    t.inst
  in
  Vod_obs.Span.with_ ~name:"matching" @@ fun () ->
  let of_outcome o = Vod_graph.Bipartite.(o.matched, o.assignment, o.right_load) in
  let matched, assignment, right_load =
    match t.scheduler with
    | Arbitrary ->
        let size = Vod_graph.Bipartite.solve_in_arena ~arena:t.arena instance in
        (size, Vod_graph.Arena.assignment t.arena, Vod_graph.Arena.right_load t.arena)
    | Prefer_cache ->
        (* serving from a static replica costs 1, from a cache 0: among
           maximum matchings, minimise the load on the allocation *)
        let cost ~left ~right =
          if Allocation.possesses t.alloc ~box:right ~stripe:st.Store.stripe.(rows.(left))
          then 1
          else 0
        in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Sticky ->
        (* keeping last round's connection costs 0, rewiring costs 1:
           among maximum matchings, minimise connection churn *)
        let cost ~left ~right = if st.Store.last_server.(rows.(left)) = right then 0 else 1 in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Greedy_proposals rounds ->
        (* no global view: persistent connections carry over, then boxes
           negotiate locally for a few rounds for the rest *)
        let warm_start = Array.init n_left (fun l -> st.Store.last_server.(rows.(l))) in
        of_outcome
          (Vod_graph.Bipartite.solve_greedy ~warm_start ~rounds t.sched_rng instance)
    | Prefer_local ->
        (* among maximum matchings, minimise cross-group connections *)
        let topo = Option.get t.topology in
        let cost ~left ~right = Topology.cost topo st.Store.owner.(rows.(left)) right in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
    | Balance_load ->
        (* among maximum matchings, steer connections towards the boxes
           that have served the least so far *)
        let cost ~left:_ ~right = t.cumulative_loads.(right) in
        of_outcome (Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost)
  in
  if matched < n_left then
    t.last_violator <-
      (match t.scheduler with
      | Arbitrary ->
          (* read off the solve just made *)
          Some (Vod_graph.Bipartite.violator_in_arena ~arena:t.arena instance)
      | Prefer_cache | Sticky | Greedy_proposals _ | Prefer_local | Balance_load ->
          (* re-solves in the arena; these schedulers' results are
             fresh arrays *)
          Vod_graph.Bipartite.hall_violator ~arena:t.arena instance);
  (assignment, right_load)

let step t =
  Vod_obs.Span.with_ ~name:"round" @@ fun () ->
  flush_dropped t;
  let time = t.now + 1 in
  t.now <- time;
  Vod_obs.Registry.incr obs_rounds;
  let new_demands =
    Vod_obs.Span.with_ ~name:"demand-admit" @@ fun () ->
    (* 1. Retire last round's completed requests and expire the cache
       entries that left the window [time - T, time].  Both only free
       slots, so they run before anything new takes one. *)
    retire t;
    expire_windows t time;
    (* 2. Turn pending user demands into scheduled requests.  Demands
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
    (* 3. Activate requests scheduled for this round.  Repair transfers
       stay out of the playback-cache window: a partially copied replica
       is not cache content other viewers may stream from. *)
    let batch = t.scheduled.(time land (schedule_ring - 1)) in
    let kind = t.store.Store.kind in
    for i = 0 to batch.len - 1 do
      let s = batch.data.(i) in
      push t.active s;
      if not (is_repair kind.(s)) then enter_window t s time
    done;
    batch.len <- 0;
    !new_demands
  in
  Vod_obs.Registry.add obs_demands new_demands;
  (* No slot is taken from here to the end of the round, so the store's
     arrays and the row buffer stay put. *)
  let st = t.store in
  let rows = t.active.data and n_left = t.active.len in
  let n = t.params.Params.n in
  Vod_obs.Registry.set obs_active n_left;
  t.faulted_rows.len <- 0;
  (* 4. The connection matching (Section 2.2).  Above the threshold the
     greedy walk seats every row and the round needs no instance:
     the maximum matching is the one Dinic's greedy pass would find. *)
  let closed =
    match t.scheduler with
    | Arbitrary -> Vod_obs.Span.with_ ~name:"matching" (fun () -> seat_rows t rows n_left)
    | Prefer_cache | Sticky | Greedy_proposals _ | Prefer_local | Balance_load -> false
  in
  t.deferred_epoch <- (if closed then t.box_epoch else -1);
  t.last_instance <- None;
  (* [assignment] and [right_load] may be borrowed from the arena: only
     entries [0 .. n_left - 1] and [0 .. n - 1] are read. *)
  let assignment, right_load =
    if closed then (Vod_graph.Arena.assignment t.arena, Vod_graph.Arena.right_load t.arena)
    else solve_instance t rows n_left
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
    let stripe_of = st.Store.stripe and owner_of = st.Store.owner in
    let progress = st.Store.progress and last_server = st.Store.last_server in
    for l = 0 to n_left - 1 do
      let s = rows.(l) in
      let is_repair = is_repair st.Store.kind.(s) in
      if is_repair then incr repair_active else incr user_active;
      let server = assignment.(l) in
      if server >= 0 then begin
        let owner = owner_of.(s) in
        let dropped =
          match t.link_faults with
          | Some fault -> fault ~time ~owner ~server
          | None -> false
        in
        if dropped then begin
          incr faulted;
          push t.faulted_rows s;
          Vod_obs.Registry.incr obs_link_failures
        end
        else begin
          if is_repair then incr repair_served else incr user_served;
          if not is_repair then begin
            (* the cache/rewiring/locality tallies describe viewer
               connections; maintenance traffic stays out of them *)
            if not (Allocation.possesses t.alloc ~box:server ~stripe:stripe_of.(s)) then
              incr served_from_cache;
            if last_server.(s) >= 0 && last_server.(s) <> server then incr rewired;
            match t.topology with
            | Some topo ->
                if not (Topology.same_group topo owner server) then incr cross_group
            | None -> ()
          end;
          last_server.(s) <- server;
          if (not is_repair) && progress.(s) = 0 then begin
            (* first byte of this stripe: one fewer stream to wait for *)
            t.awaiting_first.(owner) <- t.awaiting_first.(owner) - 1;
            if t.awaiting_first.(owner) = 0 then
              Vec.push t.startups (time - t.demand_round.(owner))
          end;
          progress.(s) <- progress.(s) + 1;
          if is_repair && progress.(s) >= st.Store.target.(s) then
            (* the replica copy is complete: hand it to the
               maintenance controller at the next drain *)
            Vec.push t.completed_repairs (stripe_of.(s), owner)
        end
      end
    done;
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
  if report.unserved > 0 && t.policy = Fail_fast then raise (Defeated report);
  report

(* ------------------------------------------------------------------ *)
(* Request-store audit                                                 *)
(* ------------------------------------------------------------------ *)

let request_slots t = (Store.live t.store, t.store.Store.minted)

let audit_requests t =
  let st = t.store in
  let minted = st.Store.minted in
  let queued_seen = Array.make minted 0 and windowed_seen = Array.make minted 0 in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let visit seen where s =
    if s < 0 || s >= minted then fail "%s holds slot %d outside the pool" where s
    else seen.(s) <- seen.(s) + 1
  in
  let scan where b =
    for i = 0 to b.len - 1 do
      visit queued_seen where b.data.(i)
    done
  in
  scan "active" t.active;
  Array.iteri (fun k b -> scan (Printf.sprintf "scheduled bucket %d" k) b) t.scheduled;
  Array.iteri
    (fun stripe head ->
      let cand = ref head and last = ref (-1) and steps = ref 0 in
      while !cand >= 0 && !steps <= minted do
        let s = !cand in
        visit windowed_seen "a window" s;
        if s >= 0 && s < minted then begin
          if st.Store.stripe.(s) <> stripe then fail "slot %d sits in stripe %d's window" s stripe;
          last := s;
          cand := st.Store.next_in_window.(s)
        end
        else cand := -1;
        incr steps
      done;
      if !steps > minted then fail "stripe %d's window has a cycle" stripe;
      if t.window_tail.(stripe) <> !last then fail "stripe %d's window tail is stale" stripe)
    t.window_head;
  let expiring = Array.make minted 0 in
  Array.iter (fun b -> for i = 0 to b.len - 1 do visit expiring "expiry" b.data.(i) done) t.expiry;
  let freed = Array.make minted 0 in
  for i = 0 to st.Store.n_free - 1 do
    visit freed "the free list" st.Store.free.(i)
  done;
  let reachable = ref 0 in
  for s = 0 to minted - 1 do
    let q = queued_seen.(s) and w = windowed_seen.(s) in
    if q > 1 then fail "slot %d is queued %d times" s q;
    if w > 1 then fail "slot %d is in windows %d times" s w;
    if expiring.(s) <> w then fail "slot %d's expiry entry disagrees with its window" s;
    let holds = st.Store.holds.(s) in
    if (q > 0) <> (holds land Store.queued <> 0) then fail "slot %d's queued mark is wrong" s;
    if (w > 0) <> (holds land Store.windowed <> 0) then fail "slot %d's window mark is wrong" s;
    if q + w > 0 then incr reachable;
    if freed.(s) > 1 then fail "slot %d is freed %d times" s freed.(s);
    if freed.(s) > 0 && (q + w > 0 || holds <> 0) then fail "freed slot %d is reachable" s;
    if freed.(s) = 0 && q + w = 0 then fail "slot %d is leaked" s
  done;
  if !reachable <> Store.live st then
    fail "%d reachable slots against %d live" !reachable (Store.live st);
  match List.rev !problems with [] -> Ok () | p :: _ -> Error p

(* Single source of truth for the report's scalar fields: Metrics.to_csv
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
