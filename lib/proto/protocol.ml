open Vod_util
open Vod_model

type config = { params : Params.t; fleet : Box.t array; alloc : Allocation.t }

(* Messages delivered to a node.  Directory interactions (counter,
   lookup, registration) are represented by their replies; the request
   leg is folded into the reply's latency and message count. *)
type msg =
  | Counter_reply of { video : int; value : int }
  | Lookup_reply of { stripe : int }
  | Propose of { stripe : int; from : int; progress : int }
  | Accept of { stripe : int; from : int }
  | Reject of { stripe : int; from : int }
  | Chunk of { stripe : int; position : int }
  | Close of { stripe : int }

type phase =
  | Waiting_lookup
  | Trying of int list
  | Proposed of int * int list (* awaiting server's answer; fallbacks kept *)
  | Streaming of int
  | Finished

type dl = {
  stripe : int;
  mutable phase : phase;
  mutable progress : int;
  mutable registered : bool;
  mutable phase_since : int; (* round of the last phase transition *)
  mutable last_chunk_at : int; (* round of the last received position *)
}

type session = {
  video : int;
  demanded_at : int;
  mutable dls : dl list;
  mutable postponed : (int * int list) option; (* launch round, stripe ids *)
  mutable startup_recorded : bool;
}

type out_stream = { client : int; o_stripe : int; mutable position : int }

type node = {
  id : int;
  mutable session : session option;
  out : out_stream Vec.t;
  cache : (int, int) Hashtbl.t; (* stripe -> completion round (full stripe cached) *)
}

type message_stats = {
  counter : int;
  lookup : int;
  negotiation : int;
  chunks : int;
  registrations : int;
}

type t = {
  cfg : config;
  ring : Vod_directory.Ring.t;
  rng : Prng.t;
  mutable now : int;
  nodes : node array;
  online : bool array;
  counters : (int, int) Hashtbl.t;
  registry : (int, (int * int) Vec.t) Hashtbl.t; (* stripe -> (holder, at); at = -1 static *)
  queue : (int * int * int * msg) Heap.t; (* (deliver_at, seq, dst, msg) *)
  mutable seq : int;
  mutable m_counter : int;
  mutable m_lookup : int;
  mutable m_nego : int;
  mutable m_chunks : int;
  mutable m_reg : int;
  startups : int Vec.t;
  mutable demands_issued : int;
  mutable completed : int;
}

let create cfg =
  let n = cfg.params.Params.n in
  if Array.length cfg.fleet <> n then invalid_arg "Protocol.create: fleet size <> params.n";
  if Allocation.n_boxes cfg.alloc <> n then invalid_arg "Protocol.create: allocation boxes";
  if Catalog.stripes_per_video (Allocation.catalog cfg.alloc) <> cfg.params.Params.c then
    invalid_arg "Protocol.create: allocation stripes <> params.c";
  let registry = Hashtbl.create 256 in
  for s = 0 to Catalog.total_stripes (Allocation.catalog cfg.alloc) - 1 do
    let v = Vec.create () in
    Array.iter (fun b -> Vec.push v (b, -1)) (Allocation.boxes_of_stripe cfg.alloc s);
    Hashtbl.add registry s v
  done;
  {
    cfg;
    ring = Vod_directory.Ring.create ~nodes:(List.init n Fun.id);
    rng = Prng.create ~seed:0xd157 ();
    now = 0;
    nodes =
      Array.init n (fun id ->
          { id; session = None; out = Vec.create (); cache = Hashtbl.create 8 });
    online = Array.make n true;
    counters = Hashtbl.create 64;
    registry;
    queue = Heap.create ~cmp:compare;
    seq = 0;
    m_counter = 0;
    m_lookup = 0;
    m_nego = 0;
    m_chunks = 0;
    m_reg = 0;
    startups = Vec.create ();
    demands_issued = 0;
    completed = 0;
  }

let now t = t.now
let is_idle t b = t.online.(b) && t.nodes.(b).session = None

(* A box crashes or leaves: its viewer disappears, its upstream streams
   stop silently (clients recover through timeouts), its playback cache
   is gone.  The DHT ring is treated as stable infrastructure and keeps
   routing; stale registry entries are healed by proposal timeouts. *)
let set_online t b online =
  if b < 0 || b >= t.cfg.params.Params.n then
    invalid_arg "Protocol.set_online: box out of range";
  if t.online.(b) && not online then begin
    t.nodes.(b).session <- None;
    Vec.clear t.nodes.(b).out;
    Hashtbl.reset t.nodes.(b).cache
  end;
  t.online.(b) <- online

let post t ~delay ~dst msg =
  t.seq <- t.seq + 1;
  Heap.add t.queue (t.now + max 1 delay, t.seq, dst, msg)

(* one-way routed latency to the DHT owner of a key, in rounds *)
let dht_hops t ~origin ~key =
  let _, hops = Vod_directory.Ring.lookup t.ring ~origin ~key in
  hops + 1

let slots_of t b = Params.upload_slots t.cfg.params t.cfg.fleet.(b).Box.upload

let holders_snapshot t ~stripe ~asking =
  let window = t.cfg.params.Params.duration in
  match Hashtbl.find_opt t.registry stripe with
  | None -> []
  | Some v ->
      Vec.fold_left
        (fun acc (holder, at) ->
          if holder <> asking && (at < 0 || t.now - at <= window) then holder :: acc
          else acc)
        [] v

let register_holder t ~stripe ~holder =
  let v =
    match Hashtbl.find_opt t.registry stripe with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Hashtbl.add t.registry stripe v;
        v
  in
  (* refresh an existing dynamic entry rather than duplicating *)
  let refreshed = ref false in
  Vec.iteri
    (fun i (h, at) ->
      if h = holder && at >= 0 then begin
        Vec.set v i (h, t.now);
        refreshed := true
      end)
    v;
  if not !refreshed && not (Vec.exists (fun (h, at) -> h = holder && at < 0) v) then
    Vec.push v (holder, t.now);
  let hops = dht_hops t ~origin:holder ~key:stripe in
  t.m_reg <- t.m_reg + hops

let send_lookup t ~client ~stripe =
  let hops = dht_hops t ~origin:client ~key:stripe in
  t.m_lookup <- t.m_lookup + (2 * hops);
  post t ~delay:(2 * hops) ~dst:client (Lookup_reply { stripe })

let demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.cfg.alloc) in
  if box < 0 || box >= t.cfg.params.Params.n then
    invalid_arg "Protocol.demand: box out of range";
  if video < 0 || video >= m then invalid_arg "Protocol.demand: video out of range";
  if not (is_idle t box) then invalid_arg "Protocol.demand: box is busy";
  t.demands_issued <- t.demands_issued + 1;
  t.nodes.(box).session <-
    Some
      {
        video;
        demanded_at = t.now;
        dls = [];
        postponed = None;
        startup_recorded = false;
      };
  (* fetch the preload counter from the video's DHT owner *)
  let value = Option.value ~default:0 (Hashtbl.find_opt t.counters video) in
  Hashtbl.replace t.counters video (value + 1);
  let hops = dht_hops t ~origin:box ~key:(1_000_000 + video) in
  t.m_counter <- t.m_counter + (2 * hops);
  post t ~delay:(2 * hops) ~dst:box (Counter_reply { video; value })

let find_dl session stripe = List.find_opt (fun d -> d.stripe = stripe) session.dls

let server_has_data t ~server ~stripe ~position =
  if Allocation.possesses t.cfg.alloc ~box:server ~stripe then true
  else begin
    let live =
      match t.nodes.(server).session with
      | Some s -> (
          match find_dl s stripe with Some d -> d.progress > position | None -> false)
      | None -> false
    in
    live
    ||
    (* finished viewers keep the whole stripe in their playback cache
       for a window of T rounds *)
    match Hashtbl.find_opt t.nodes.(server).cache stripe with
    | Some completed_at -> t.now - completed_at <= t.cfg.params.Params.duration
    | None -> false
  end

let start_dl t ~client ~stripe =
  match t.nodes.(client).session with
  | None -> ()
  | Some s ->
      let d =
        {
          stripe;
          phase = Waiting_lookup;
          progress = 0;
          registered = false;
          phase_since = t.now;
          last_chunk_at = t.now;
        }
      in
      s.dls <- d :: s.dls;
      send_lookup t ~client ~stripe

let check_startup t node =
  match node.session with
  | None -> ()
  | Some s ->
      let c = t.cfg.params.Params.c in
      if
        (not s.startup_recorded)
        && List.length s.dls = c
        && s.postponed = None
        && List.for_all (fun d -> d.progress >= 1) s.dls
      then begin
        s.startup_recorded <- true;
        Vec.push t.startups (t.now - s.demanded_at)
      end

let check_completion t node =
  match node.session with
  | None -> ()
  | Some s ->
      let c = t.cfg.params.Params.c in
      if
        List.length s.dls = c
        && s.postponed = None
        && List.for_all (fun d -> d.phase = Finished) s.dls
      then begin
        t.completed <- t.completed + 1;
        (* the playback cache outlives the session *)
        List.iter (fun d -> Hashtbl.replace node.cache d.stripe t.now) s.dls;
        node.session <- None
      end

let advance_trying t ~client dl =
  match dl.phase with
  | Trying [] ->
      dl.phase <- Waiting_lookup;
      dl.phase_since <- t.now;
      send_lookup t ~client ~stripe:dl.stripe
  | Trying (candidate :: rest) ->
      dl.phase <- Proposed (candidate, rest);
      dl.phase_since <- t.now;
      t.m_nego <- t.m_nego + 1;
      post t ~delay:1 ~dst:candidate
        (Propose { stripe = dl.stripe; from = client; progress = dl.progress })
  | _ -> ()

let handle t dst msg =
  let node = t.nodes.(dst) in
  if not t.online.(dst) then () (* messages to departed boxes vanish *)
  else
  match msg with
  | Counter_reply { video; value } -> (
      match node.session with
      | None -> ()
      | Some s when s.video = video && s.dls = [] ->
          let c = t.cfg.params.Params.c in
          let cat = Allocation.catalog t.cfg.alloc in
          let preload_index = value mod c in
          start_dl t ~client:dst ~stripe:(Catalog.stripe_id cat ~video ~index:preload_index);
          let others =
            List.init (c - 1) (fun j ->
                Catalog.stripe_id cat ~video ~index:((preload_index + j + 1) mod c))
          in
          s.postponed <- Some (t.now + 1, others)
      | Some _ -> ())
  | Lookup_reply { stripe } -> (
      match node.session with
      | None -> ()
      | Some s -> (
          match find_dl s stripe with
          | Some dl when dl.phase = Waiting_lookup ->
              let holders =
                holders_snapshot t ~stripe ~asking:dst
                (* the directory may still list departed boxes; those
                   proposals will time out, but skip the ones we can
                   locally observe as gone *)
                |> List.filter (fun h -> t.online.(h))
              in
              let arr = Array.of_list holders in
              Sample.shuffle t.rng arr;
              dl.phase <- Trying (Array.to_list arr);
              advance_trying t ~client:dst dl
          | Some _ | None -> ()))
  | Propose { stripe; from; progress } ->
      let can_serve =
        Vec.length node.out < slots_of t dst && server_has_data t ~server:dst ~stripe ~position:progress
      in
      t.m_nego <- t.m_nego + 1;
      if can_serve then begin
        Vec.push node.out { client = from; o_stripe = stripe; position = progress };
        post t ~delay:1 ~dst:from (Accept { stripe; from = dst })
      end
      else post t ~delay:1 ~dst:from (Reject { stripe; from = dst })
  | Accept { stripe; from } -> (
      match node.session with
      | None -> ()
      | Some s -> (
          match find_dl s stripe with
          | Some dl -> (
              match dl.phase with
              | Proposed (server, _) when server = from ->
                  dl.phase <- Streaming server;
                  dl.phase_since <- t.now;
                  dl.last_chunk_at <- t.now
              | _ -> ())
          | None -> ()))
  | Reject { stripe; from } -> (
      match node.session with
      | None -> ()
      | Some s -> (
          match find_dl s stripe with
          | Some dl -> (
              match dl.phase with
              | Proposed (server, rest) when server = from ->
                  (* try the remaining candidates before paying for a
                     fresh lookup *)
                  dl.phase <- Trying rest;
                  dl.phase_since <- t.now;
                  advance_trying t ~client:dst dl
              | _ -> ())
          | None -> ()))
  | Chunk { stripe; position } -> (
      match node.session with
      | None -> ()
      | Some s -> (
          match find_dl s stripe with
          | None -> ()
          | Some dl ->
              if position >= dl.progress then dl.progress <- position + 1;
              dl.last_chunk_at <- t.now;
              if (not dl.registered) && dl.progress >= 1 then begin
                dl.registered <- true;
                register_holder t ~stripe ~holder:dst
              end;
              if dl.progress >= t.cfg.params.Params.duration then dl.phase <- Finished;
              check_startup t node;
              check_completion t node))
  | Close { stripe } -> (
      match node.session with
      | None -> ()
      | Some s -> (
          match find_dl s stripe with
          | Some dl when dl.phase <> Finished ->
              dl.phase <- Waiting_lookup;
              dl.phase_since <- t.now;
              send_lookup t ~client:dst ~stripe
          | Some _ | None -> ()))

(* Failure detection by timeout: a proposal unanswered for a few
   rounds counts as a rejection; a stream that stopped delivering is
   abandoned and the stripe re-enters the lookup loop. *)
let proposal_timeout = 6
let stream_timeout = 6

let apply_timeouts t =
  Array.iter
    (fun node ->
      if t.online.(node.id) then
        match node.session with
        | None -> ()
        | Some s ->
            List.iter
              (fun dl ->
                match dl.phase with
                | Proposed (_, rest) when t.now - dl.phase_since > proposal_timeout ->
                    dl.phase <- Trying rest;
                    dl.phase_since <- t.now;
                    advance_trying t ~client:node.id dl
                | Streaming _ when t.now - dl.last_chunk_at > stream_timeout ->
                    dl.phase <- Waiting_lookup;
                    dl.phase_since <- t.now;
                    send_lookup t ~client:node.id ~stripe:dl.stripe
                | _ -> ())
              s.dls)
    t.nodes

let push_chunks t =
  Array.iter
    (fun node ->
      if not t.online.(node.id) then Vec.clear node.out
      else
      let keep = Vec.create () in
      Vec.iter
        (fun stream ->
          if stream.position >= t.cfg.params.Params.duration then
            () (* stream complete: slot freed *)
          else if
            server_has_data t ~server:node.id ~stripe:stream.o_stripe
              ~position:stream.position
          then begin
            t.m_chunks <- t.m_chunks + 1;
            post t ~delay:1 ~dst:stream.client
              (Chunk { stripe = stream.o_stripe; position = stream.position });
            stream.position <- stream.position + 1;
            Vec.push keep stream
          end
          else begin
            (* cache has not advanced enough: release the client *)
            t.m_nego <- t.m_nego + 1;
            post t ~delay:1 ~dst:stream.client (Close { stripe = stream.o_stripe })
          end)
        node.out;
      Vec.clear node.out;
      Vec.iter (Vec.push node.out) keep)
    t.nodes

let launch_postponed t =
  Array.iter
    (fun node ->
      match node.session with
      | Some ({ postponed = Some (at, stripes); _ } as s) when at <= t.now ->
          s.postponed <- None;
          List.iter (fun stripe -> start_dl t ~client:node.id ~stripe) stripes
      | _ -> ())
    t.nodes

let step t =
  t.now <- t.now + 1;
  (* deliver everything due this round, in send order *)
  let rec drain () =
    match Heap.peek t.queue with
    | Some (at, _, _, _) when at <= t.now -> (
        match Heap.pop t.queue with
        | Some (_, _, dst, msg) ->
            handle t dst msg;
            drain ()
        | None -> ())
    | _ -> ()
  in
  drain ();
  launch_postponed t;
  apply_timeouts t;
  push_chunks t

let completed_demands t = t.completed
let startup_delays t = Vec.to_array t.startups

let stalled_demands t =
  Array.fold_left (fun acc node -> if node.session <> None then acc + 1 else acc) 0 t.nodes

let message_stats t =
  {
    counter = t.m_counter;
    lookup = t.m_lookup;
    negotiation = t.m_nego;
    chunks = t.m_chunks;
    registrations = t.m_reg;
  }

let control_messages_per_demand t =
  if t.demands_issued = 0 then 0.0
  else
    float_of_int (t.m_counter + t.m_lookup + t.m_nego + t.m_reg)
    /. float_of_int t.demands_issued
