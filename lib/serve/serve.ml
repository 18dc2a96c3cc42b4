open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Telemetry = Vod_sim.Telemetry
module Scenario = Vod_fault.Scenario
module Driver = Vod_fault.Driver
module Generators = Vod_workload.Generators
module Export = Vod_obs.Export
module Registry = Vod_obs.Registry
module Slo = Vod_obs.Slo

let obs_queue_wait = Registry.histogram Registry.default "serve.queue_wait"

(* Rounds an admitted session may wait for its first chunk before it is
   cancelled into the retry path, and rounds an arrival may wait in the
   queue before it expires into it. *)
let startup_deadline = 8
let queue_patience = 12

(* The retry backoff's first delay and cap, in rounds. *)
let backoff_base = 2
let backoff_cap = 16

type shed_policy = Newest_first | Lowest_priority | Helper_first

let shed_policy_name = function
  | Newest_first -> "newest-first"
  | Lowest_priority -> "lowest-priority"
  | Helper_first -> "helper-first"

let shed_policy_of_name = function
  | "newest-first" -> Ok Newest_first
  | "lowest-priority" -> Ok Lowest_priority
  | "helper-first" -> Ok Helper_first
  | name -> Error (Printf.sprintf "unknown shed policy '%s'" name)

type config = {
  queue_cap : int;
  tokens_per_round : int option;
  token_burst : int option;
  headroom_margin : float;
  retry_budget : int;
  shed_policy : shed_policy;
}

let default_config =
  {
    queue_cap = 256;
    tokens_per_round = None;
    token_burst = None;
    headroom_margin = 0.1;
    retry_budget = 3;
    shed_policy = Newest_first;
  }

let config ?queue_cap ?tokens_per_round ?token_burst ?headroom_margin ?retry_budget
    ?shed_policy () =
  let d = default_config in
  let cfg =
    {
      queue_cap = Option.value queue_cap ~default:d.queue_cap;
      tokens_per_round =
        (match tokens_per_round with Some t -> Some t | None -> d.tokens_per_round);
      token_burst = (match token_burst with Some t -> Some t | None -> d.token_burst);
      headroom_margin = Option.value headroom_margin ~default:d.headroom_margin;
      retry_budget = Option.value retry_budget ~default:d.retry_budget;
      shed_policy = Option.value shed_policy ~default:d.shed_policy;
    }
  in
  if cfg.queue_cap < 1 then invalid_arg "Serve.config: queue_cap must be >= 1";
  (match cfg.tokens_per_round with
  | Some t when t < 1 -> invalid_arg "Serve.config: tokens_per_round must be >= 1"
  | _ -> ());
  (match cfg.token_burst with
  | Some t when t < 1 -> invalid_arg "Serve.config: token_burst must be >= 1"
  | _ -> ());
  if
    (not (Float.is_finite cfg.headroom_margin))
    || cfg.headroom_margin < 0.0 || cfg.headroom_margin >= 1.0
  then invalid_arg "Serve.config: headroom_margin outside [0, 1)";
  if cfg.retry_budget < 1 then invalid_arg "Serve.config: retry_budget must be >= 1";
  cfg

type arrivals =
  | Scenario_rate
  | Poisson of float
  | Zipf of { rate : float; s : float }

let arrivals_of_name name =
  match String.split_on_char ':' name with
  | [ "scenario" ] -> Ok Scenario_rate
  | [ "poisson"; r ] -> (
      match float_of_string_opt r with
      | Some rate when Float.is_finite rate && rate >= 0.0 -> Ok (Poisson rate)
      | _ -> Error (Printf.sprintf "bad poisson rate '%s'" r))
  | [ "zipf"; r; s ] -> (
      match (float_of_string_opt r, float_of_string_opt s) with
      | Some rate, Some s when Float.is_finite rate && rate >= 0.0 && Float.is_finite s ->
          Ok (Zipf { rate; s })
      | _ -> Error (Printf.sprintf "bad zipf spec '%s:%s' (want zipf:RATE:S)" r s))
  | _ ->
      Error
        (Printf.sprintf "unknown arrivals '%s' (want scenario, poisson:RATE or zipf:RATE:S)"
           name)

let arrivals_label = function
  | Scenario_rate -> "scenario"
  | Poisson r -> Printf.sprintf "poisson:%.4f" r
  | Zipf { rate; s } -> Printf.sprintf "zipf:%.4f:%.4f" rate s

type totals = {
  mutable arrivals : int;
  mutable flash_arrivals : int;
  mutable admitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable rejected : int;
  mutable retries : int;
  mutable retry_sessions : int;
  retry_budget : int;
  mutable interrupted : int;
  mutable expired : int;
  mutable overflow_shed : int;
  mutable overload_shed : int;
  mutable helpers_drafted : int;
  mutable stalled_rounds : int;
  mutable total_unserved : int;
  mutable max_queue : int;
  mutable degraded_rounds : int;
}

(* The serve.* registry counters, each a projection of a totals field:
   a run adds its totals to them once, when it ends. *)
let obs_totals =
  List.map
    (fun (name, field) -> (Registry.counter Registry.default ("serve." ^ name), field))
    [
      ("arrivals", fun t -> t.arrivals);
      ("admitted", fun t -> t.admitted);
      ("completed", fun t -> t.completed);
      ("shed", fun t -> t.shed);
      ("rejected", fun t -> t.rejected);
      ("retries", fun t -> t.retries);
      ("interrupted", fun t -> t.interrupted);
      ("expired", fun t -> t.expired);
      ("degraded_rounds", fun t -> t.degraded_rounds);
      ("stalled_rounds", fun t -> t.stalled_rounds);
    ]

(* The graceful-degradation contract: [verdict_ok] and the verdict
   line's "ok". *)
let totals_ok t = t.total_unserved = 0 && t.retries <= t.retry_budget * t.retry_sessions

type outcome = {
  scenario : Scenario.t;
  seed : int;
  rounds : int;
  totals : totals;
  live_at_end : int;
  slo : Slo.summary list;
  jsonl : string;
  slo_jsonl : string;
}

(* ------------------------------------------------------------------ *)
(* KPI budgets as SLOs                                                 *)
(* ------------------------------------------------------------------ *)

(* The service compiles its own SLO set: a stall objective is always on
   (the graceful-degradation contract says admitted viewers never miss
   a round), [max-rejection] budgets the share of admission decisions
   that drop a session, and [max-startup-p95] keeps the chaos startup
   tail semantics.  [admission] reads the round's (bad, total)
   decisions. *)

let slo_specs (s : Scenario.t) ~admission =
  let kpi = s.Scenario.kpi in
  List.filter_map Fun.id
    [
      Some ("stall", 0.01, Telemetry.Counts Telemetry.rejection);
      Option.map
        (fun r -> ("admission", r, Telemetry.Counts admission))
        kpi.max_rejection;
      Option.map
        (fun l -> ("startup", 0.05, Telemetry.Startup_over l))
        kpi.max_startup_p95;
    ]

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type sess = {
  id : int;
  box : int;
  video : int;
  arrived : int;
  priority : int; (* 0 = flash crowd (sheddable first), 1 = background *)
  mutable state : Session.state;
  mutable deadline : int; (* queue patience, then startup deadline *)
  mutable admitted_at : int;
}

let is_live s = s.state = Session.Admitted || s.state = Session.Streaming

(* [Lowest_priority]'s shed order: flash crowd before background, then
   newest admission, then highest id.  Ids are unique, so the order is
   total. *)
let lowest_priority_first a b =
  if a.priority <> b.priority then compare a.priority b.priority
  else if a.admitted_at <> b.admitted_at then compare b.admitted_at a.admitted_at
  else compare b.id a.id

let n_states = 7

let state_index = function
  | Session.Arriving -> 0
  | Session.Admitted -> 1
  | Session.Streaming -> 2
  | Session.Completed -> 3
  | Session.Retrying -> 4
  | Session.Shed -> 5
  | Session.Rejected -> 6

let run ?rounds ?seed ?(config = default_config) ?(arrivals = Scenario_rate)
    (s : Scenario.t) =
  match Driver.create ?rounds ?seed s with
  | Error _ as err -> err
  | Ok d ->
      let cfg = config in
      let engine = d.Driver.engine and n_total = d.Driver.n and m = d.Driver.m in
      let rounds = d.Driver.rounds and seed = d.Driver.seed in
      let backoff =
        Backoff.create ~seed:(seed + 29) ~policy:Backoff.Decorrelated_jitter
          ~budget:cfg.retry_budget ~base:backoff_base ~cap:backoff_cap ()
      in
      let generator =
        let rate_gen rate =
          if rate > 0.0 then
            Generators.uniform_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate
          else Generators.nothing
        in
        match arrivals with
        | Scenario_rate -> rate_gen s.rate
        | Poisson rate -> rate_gen rate
        | Zipf { rate; s = zs } ->
            if rate > 0.0 then
              Generators.zipf_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate ~s:zs
            else Generators.nothing
      in
      (* capacity model: online upload slots, a reserve for repair
         traffic plus the configured safety margin, and a projected cost
         of c slots per live session *)
      let c = s.c in
      (* A helper's admission-capacity credit is capped at one upload
         slot per replica it holds: a spare-upload box with a tiny
         replica set can relieve viewers of those stripes but cannot
         serve arbitrary admissions, and counting its raw slot total
         would open the floodgates on capacity the matching does not
         have. *)
      let box_slots b =
        let slots = Engine.upload_slots_of_box engine b in
        if Engine.is_helper engine b then
          min slots (Array.length (Allocation.stripes_of_box (Engine.alloc engine) b))
        else slots
      in
      (* every input of the total moves the engine's box epoch, so the
         O(n) scan runs only on rounds with a fault event or a helper
         draft *)
      let slots_epoch = ref (-1) and slots_total = ref 0 in
      let online_slots () =
        let epoch = Engine.box_epoch engine in
        if epoch <> !slots_epoch then begin
          let total = ref 0 in
          for b = 0 to n_total - 1 do
            if Engine.is_online engine b then total := !total + box_slots b
          done;
          slots_epoch := epoch;
          slots_total := !total
        end;
        !slots_total
      in
      let reserve slots =
        s.budget + int_of_float (ceil (cfg.headroom_margin *. float_of_int slots))
      in
      let slots0 = online_slots () in
      let tokens_per_round =
        match cfg.tokens_per_round with
        | Some t -> t
        | None -> max 1 ((slots0 - reserve slots0) / (c * (s.duration + 2)))
      in
      let token_burst =
        match cfg.token_burst with Some t -> t | None -> 4 * tokens_per_round
      in
      let capacity_sessions = min (max 0 ((slots0 - reserve slots0) / c)) s.n in
      let nu =
        match s.population with
        | Scenario.Homogeneous when s.u > 1.0 -> (
            try Some (Vod_analysis.Theorem1.nu ~u:s.u ~mu:s.mu ~c) with Invalid_argument _ -> None)
        | _ -> None
      in
      let next_id = ref 0 in
      (* The arrival queue is a FIFO: the entries of [queue] from index
         [!q_head] on.  Every enqueue at round t sets the deadline to
         t + queue_patience, so the entries are in deadline order.  An
         overflow shed advances [q_head] past the head; the shed entries
         below it are no longer [Arriving] and leave [queue] at the next
         filter pass, which resets [q_head] to 0. *)
      let queue : sess Vec.t = Vec.create () in
      let q_head = ref 0 in
      let queue_length () = Vec.length queue - !q_head in
      let filter_queue keep =
        Vec.filter_in_place keep queue;
        q_head := 0
      in
      (* The admitted and streaming sessions in admission order.  Only
         live sessions are in it between rounds: step 9 drops the rest. *)
      let live_order : sess Vec.t = Vec.create () in
      (* boxes with a non-terminal session; a trace may name a box
         outside the fleet, which is never marked and is rejected at
         admission *)
      let owned = Bytes.make n_total '\000' in
      let is_owned box = box >= 0 && box < n_total && Bytes.get owned box <> '\000' in
      let set_owned box flag =
        if box >= 0 && box < n_total then
          Bytes.set owned box (if flag then '\001' else '\000')
      in
      let retry_at : (int, sess Vec.t) Hashtbl.t = Hashtbl.create 16 in
      (* this round's grants per video: [granted.(v)] counts while
         [granted_round.(v)] is the current round *)
      let granted = Array.make m 0 and granted_round = Array.make m (-1) in
      let tokens = ref token_burst in
      let degraded = ref false in
      (* Measured matching shortfall, in slots.  Aggregate headroom
         cannot see per-replica or per-link constraints (an ISP
         bottleneck halves real capacity long before the slot sum goes
         negative), so the controller closes the loop on the engine's
         own unserved count: every stalled round adds its shortfall to
         the headroom debt (forcing shedding next round).  The debt is
         sticky — probing it away risks stalling an admitted viewer, so
         it halves only after [clean_streak] consecutive clean rounds
         (slow, hysteretic re-admission instead of oscillation). *)
      let shortfall = ref 0 in
      let clean_rounds = ref 0 in
      let clean_streak = 8 in
      (* The run's one tally: every session event bumps its field once.
         A round's counts are the tally less its copy at the round's
         start. *)
      let tally =
        {
          arrivals = 0;
          flash_arrivals = 0;
          admitted = 0;
          completed = 0;
          shed = 0;
          rejected = 0;
          retries = 0;
          retry_sessions = 0;
          retry_budget = cfg.retry_budget;
          interrupted = 0;
          expired = 0;
          overflow_shed = 0;
          overload_shed = 0;
          helpers_drafted = 0;
          stalled_rounds = 0;
          total_unserved = 0;
          max_queue = 0;
          degraded_rounds = 0;
        }
      in
      let snapshot () = { tally with arrivals = tally.arrivals } in
      let round_start = ref (snapshot ()) in
      let buf = Buffer.create (rounds * 128) in
      let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
      line
        {|{"type":"meta","version":"vod-serve/1","scenario":"%s","arrivals":"%s","seed":%d,"rounds":%d,"n":%d,"m":%d,"c":%d,"k":%d,"queue_cap":%d,"tokens_per_round":%d,"token_burst":%d,"retry_budget":%d,"backoff_base":%d,"backoff_cap":%d,"shed_policy":"%s","slots":%d,"reserve":%d,"capacity_sessions":%d,"nu":%s}|}
        (Export.escape s.name)
        (Export.escape (arrivals_label arrivals))
        seed rounds n_total m c s.k cfg.queue_cap tokens_per_round token_burst
        cfg.retry_budget backoff_base backoff_cap
        (shed_policy_name cfg.shed_policy)
        slots0 (reserve slots0) capacity_sessions
        (match nu with Some v -> Printf.sprintf "%.4f" v | None -> "null");
      let admission _ =
        let r0 = !round_start in
        let bad = tally.shed - r0.shed + tally.rejected - r0.rejected in
        (bad, bad + tally.admitted - r0.admitted)
      in
      let slos =
        Telemetry.create ~meta:(Driver.slo_meta d ~config:"serve") engine
          (slo_specs s ~admission)
      in
      (* ------------------------------------------------------------ *)
      (* session plumbing                                              *)
      (* ------------------------------------------------------------ *)
      (* sessions per state, kept by [deliver] (the only place a state
         changes) and [new_session] (which starts one in [Arriving]) *)
      let in_state = Array.make n_states 0 in
      let count st = in_state.(state_index st) in
      let bump st delta =
        in_state.(state_index st) <- in_state.(state_index st) + delta
      in
      let deliver sess msg =
        match Session.transition sess.state msg with
        | Some st ->
            bump sess.state (-1);
            bump st 1;
            sess.state <- st
        | None ->
            invalid_arg
              (Printf.sprintf "Serve: illegal message in state %s (session %d)"
                 (Session.state_name sess.state) sess.id)
      in
      let finalize sess =
        set_owned sess.box false;
        Backoff.reset backoff ~key:sess.id
      in
      let shed_terminal sess =
        deliver sess Session.Shed_notice;
        finalize sess;
        tally.shed <- tally.shed + 1
      in
      let reject_terminal sess =
        deliver sess Session.Deny;
        finalize sess;
        tally.rejected <- tally.rejected + 1
      in
      (* Park a failed session in the retry loop — or end it when the
         budget is spent ([`Shed] for load/fault losses, [`Rejected] for
         admission denials). *)
      let park_retry sess ~time ~on_exhausted =
        match Backoff.record_failure backoff ~key:sess.id ~time with
        | Backoff.Exhausted -> (
            match on_exhausted with
            | `Shed -> shed_terminal sess
            | `Rejected -> reject_terminal sess)
        | Backoff.Retry_at at ->
            let attempt = Backoff.attempts backoff ~key:sess.id in
            if attempt = 1 then tally.retry_sessions <- tally.retry_sessions + 1;
            deliver sess Session.Retry_after;
            let bucket =
              match Hashtbl.find_opt retry_at at with
              | Some v -> v
              | None ->
                  let v = Vec.create () in
                  Hashtbl.add retry_at at v;
                  v
            in
            Vec.push bucket sess
      in
      (* bounded arrival queue: on overflow the entry with the oldest
         deadline is shed terminally (it is the closest to useless).  In
         the deadline-ordered FIFO that is the head, or the arrival
         itself when the head is not strictly older (the first of equal
         deadlines in queue order, the arrival being last). *)
      let enqueue sess =
        if queue_length () < cfg.queue_cap then Vec.push queue sess
        else begin
          let head = Vec.get queue !q_head in
          let victim =
            if head.deadline < sess.deadline then begin
              incr q_head;
              Vec.push queue sess;
              head
            end
            else sess
          in
          shed_terminal victim;
          tally.overflow_shed <- tally.overflow_shed + 1
        end
      in
      let new_session ~box ~video ~time ~priority =
        let id = !next_id in
        incr next_id;
        let sess =
          {
            id;
            box;
            video;
            arrived = time;
            priority;
            state = Session.Arriving;
            deadline = time + queue_patience;
            admitted_at = -1;
          }
        in
        bump Session.Arriving 1;
        set_owned box true;
        tally.arrivals <- tally.arrivals + 1;
        enqueue sess
      in
      (* a flash crowd arrives as admission events, not as direct
         engine demands: every extra viewer queues like anyone else and
         is sheddable (priority 0) under overload *)
      let unowned b = not (is_owned b) in
      let flash ~time ~video ~viewers =
        let idle, take = Driver.crowd ~eligible:unowned d ~viewers in
        for i = 0 to take - 1 do
          new_session ~box:idle.(i) ~video ~time ~priority:0;
          tally.flash_arrivals <- tally.flash_arrivals + 1
        done
      in
      let allowed_new ~time video =
        let admitted_now = if granted_round.(video) = time then granted.(video) else 0 in
        let size = Engine.swarm_size engine video + admitted_now in
        let target = int_of_float (ceil (float_of_int (max size 1) *. s.mu)) in
        target - size
      in
      let live_count () = count Session.Admitted + count Session.Streaming in
      (* The box epoch step 2 last swept at, and whether it swept this
         round.  Invariant: every session in [live_order] at step 2 had
         an online box and a sourceable video at [!swept_epoch], checked
         by that sweep or at its admission in step 7.  Every input of the
         check moves the epoch (an online flip, an upload factor, a
         helper mark, an install), so while the epoch stays put the sweep
         would interrupt no one and is skipped.  A step-6 draft or a
         step-8 install moves the epoch after step 2, so the next round
         sweeps the sessions admitted since. *)
      let swept_epoch = ref (-1) and swept_now = ref false in
      (* Sourcing feasibility: a video is streamable only while every
         one of its stripes has an online replica on a box with upload
         capacity left after degradation (the live allocation includes
         Mend's repairs).  Conservative — the matching can also source
         from playback caches — but a [false] here means an admitted
         viewer of that video is at risk of stalling, and the contract
         is to recover such sessions, not stall them.

         Memoised on the box epoch: an entry holds while the epoch it
         was computed at ([memo_epoch.(v)]) is current.  On a round that
         swept, the entries computed at the sweep's epoch also hold for
         the rest of the round, so after a step-6 helper draft step 7
         reads the values the sweep saw, not values after the draft
         (the golden transcripts pin this).  No entry from an earlier
         round has that epoch then: an unchanged epoch skips the sweep,
         and a draft leaves no helper to draft until the epoch moves
         again. *)
      let memo = Bytes.make m '\000' and memo_epoch = Array.make m (-1) in
      let sourceable video =
        let epoch = Engine.box_epoch engine and at = memo_epoch.(video) in
        if at = epoch || (!swept_now && at = !swept_epoch) then
          Bytes.get memo video <> '\000'
        else begin
          let alloc_now = Engine.alloc engine in
          let cat = Allocation.catalog alloc_now in
          let v =
            Array.for_all
              (fun stripe ->
                Array.exists
                  (fun b ->
                    Engine.is_online engine b && Engine.upload_slots_of_box engine b > 0)
                  (Allocation.boxes_of_stripe alloc_now stripe))
              (Catalog.stripes_of_video cat video)
          in
          Bytes.set memo video (if v then '\001' else '\000');
          memo_epoch.(video) <- epoch;
          v
        end
      in
      (* ------------------------------------------------------------ *)
      (* the round loop                                                *)
      (* ------------------------------------------------------------ *)
      for _ = 1 to rounds do
        let time = Engine.now engine + 1 in
        (* the backlog carried over from the previous round's admission
           scan — the degradation signal below reads this, not the
           transient intra-round occupancy (which always includes this
           round's not-yet-scanned arrivals, and would flag a healthy
           service degraded whenever the background rate alone tops the
           queue threshold) *)
        let backlog = queue_length () in
        round_start := snapshot ();
        (* 1. fault-plan events (flash crowds enqueue arrival bursts) *)
        Driver.faults d ~time ~flash;
        (* 2. interrupts: admitted viewers whose box went dark (the
           engine already dropped their requests with the box) or whose
           video lost every online replica of some stripe re-enter
           through the retry loop — recovered, never left to stall.
           Only on rounds whose box epoch moved (see [swept_epoch]). *)
        let epoch = Engine.box_epoch engine in
        swept_now := epoch <> !swept_epoch;
        if !swept_now then begin
          swept_epoch := epoch;
          Vec.filter_in_place
            (fun sess ->
              if (not (Engine.is_online engine sess.box)) || not (sourceable sess.video)
              then begin
                if Engine.is_online engine sess.box then Engine.cancel engine sess.box;
                park_retry sess ~time ~on_exhausted:`Shed;
                tally.interrupted <- tally.interrupted + 1;
                false
              end
              else true)
            live_order
        end;
        (* 3. due retries re-join the arrival queue (idempotent: same
           session id, a re-admission never double-counts arrival) *)
        (match Hashtbl.find_opt retry_at time with
        | None -> ()
        | Some bucket ->
            Vec.iter
              (fun sess ->
                if sess.state = Session.Retrying then begin
                  deliver sess Session.Join;
                  sess.deadline <- time + queue_patience;
                  tally.retries <- tally.retries + 1;
                  enqueue sess
                end)
              bucket;
            Hashtbl.remove retry_at time);
        (* 4. background arrivals *)
        List.iter
          (fun (box, video) ->
            if not (is_owned box) then
              new_session ~box ~video ~time ~priority:1)
          (generator engine time);
        (* 5. queue patience: out-waited arrivals expire into the retry
           loop (deadline-aware recovery, not a silent drop) *)
        filter_queue (fun sess ->
            if sess.state <> Session.Arriving then false
            else if time > sess.deadline then begin
              park_retry sess ~time ~on_exhausted:`Shed;
              tally.expired <- tally.expired + 1;
              false
            end
            else true);
        (* 6. measured headroom, degradation and overload shedding *)
        let slots = ref (online_slots ()) in
        let headroom = ref (!slots - reserve !slots - (c * live_count ()) - !shortfall) in
        let high = cfg.queue_cap * 3 / 4 and low = cfg.queue_cap / 4 in
        if !headroom < c || backlog > high then degraded := true
        else if !headroom >= c && backlog <= low then degraded := false;
        if !degraded then tally.degraded_rounds <- tally.degraded_rounds + 1;
        if !headroom < 0 then begin
          (* capacity collapsed under admitted load (outage): relieve or
             shed sessions — never let admitted viewers stall *)
          if cfg.shed_policy = Helper_first then
            Array.iter
              (fun (start, count) ->
                for b = start to start + count - 1 do
                  if not (Engine.is_online engine b) then begin
                    Engine.set_online engine b true;
                    tally.helpers_drafted <- tally.helpers_drafted + 1;
                    let gained = box_slots b in
                    slots := !slots + gained;
                    headroom := !headroom + gained
                  end
                done)
              d.Driver.helpers;
          (* one pass over the victims in shed order: [live_order] from
             its back (newest admitted first), or sorted by
             [lowest_priority_first] *)
          let n_live = Vec.length live_order in
          let victim =
            match cfg.shed_policy with
            | Newest_first | Helper_first -> fun i -> Vec.get live_order (n_live - 1 - i)
            | Lowest_priority ->
                let order = Vec.to_array live_order in
                Array.sort lowest_priority_first order;
                Array.get order
          in
          let i = ref 0 in
          while !headroom < 0 && !i < n_live do
            let sess = victim !i in
            incr i;
            Engine.cancel engine sess.box;
            park_retry sess ~time ~on_exhausted:`Shed;
            tally.overload_shed <- tally.overload_shed + 1;
            headroom := !headroom + c
          done
        end;
        (* 7. admission: token bucket + headroom + per-video mu bound *)
        tokens := min token_burst (!tokens + tokens_per_round);
        filter_queue (fun sess ->
            if sess.state <> Session.Arriving then false
            else if !tokens <= 0 || !headroom < c then true
            else if allowed_new ~time sess.video <= 0 then true
            else if not (sourceable sess.video) then true
              (* unsourceable title: hold in queue until Mend repairs
                 it or the patience deadline recycles the session *)
            else
              match Engine.try_demand engine ~box:sess.box ~video:sess.video with
              | Engine.Admitted ->
                  deliver sess Session.Grant;
                  sess.admitted_at <- time;
                  sess.deadline <- time + startup_deadline;
                  decr tokens;
                  headroom := !headroom - c;
                  if granted_round.(sess.video) <> time then begin
                    granted_round.(sess.video) <- time;
                    granted.(sess.video) <- 0
                  end;
                  granted.(sess.video) <- granted.(sess.video) + 1;
                  Vec.push live_order sess;
                  tally.admitted <- tally.admitted + 1;
                  Registry.observe obs_queue_wait (time - sess.arrived);
                  false
              | Engine.Queued -> true (* box mid-playback: wait *)
              | Engine.Rejected Engine.Offline ->
                  park_retry sess ~time ~on_exhausted:`Rejected;
                  false
              | Engine.Rejected (Engine.Helper | Engine.Out_of_range) ->
                  reject_terminal sess;
                  false);
        (* 8. the simulator round, with repair under it *)
        let report = Driver.step d in
        (* 9. session accounting, one pass: startups, completions (a
           session that starts this round can also complete), missed
           startup deadlines; the sessions no longer live leave
           [live_order], step 6's overload victims among them.  Each
           step touches only the session's own box and backoff key, so
           fusing the passes keeps the retry draws in order. *)
        Vec.filter_in_place
          (fun sess ->
            if sess.state = Session.Admitted then begin
              if Engine.awaiting_first engine sess.box = 0 then
                deliver sess Session.First_chunk
              else if time > sess.deadline then begin
                (* the engine never produced a first chunk in time:
                   cancel and recover through the retry loop *)
                Engine.cancel engine sess.box;
                park_retry sess ~time ~on_exhausted:`Shed;
                tally.expired <- tally.expired + 1
              end
            end;
            if sess.state = Session.Streaming && Engine.is_idle engine sess.box then begin
              deliver sess Session.Complete;
              finalize sess;
              tally.completed <- tally.completed + 1
            end;
            is_live sess)
          live_order;
        (* 10. stall accounting, SLOs, telemetry, the round line *)
        if report.Engine.unserved > 0 then begin
          tally.stalled_rounds <- tally.stalled_rounds + 1;
          shortfall := !shortfall + report.Engine.unserved;
          clean_rounds := 0
        end
        else begin
          incr clean_rounds;
          if !clean_rounds >= clean_streak && !shortfall > 0 then begin
            shortfall := !shortfall / 2;
            clean_rounds := 0
          end
        end;
        tally.total_unserved <- tally.total_unserved + report.Engine.unserved;
        tally.max_queue <- max tally.max_queue (queue_length ());
        Telemetry.observe slos report;
        let live = live_count () in
        let streaming = count Session.Streaming and retrying = count Session.Retrying in
        let r0 = !round_start in
        line
          {|{"type":"round","t":%d,"state":"%s","arrivals":%d,"admitted":%d,"retried":%d,"queue":%d,"tokens":%d,"headroom":%d,"shortfall":%d,"live":%d,"streaming":%d,"retrying":%d,"interrupted":%d,"expired":%d,"shed":%d,"rejected":%d,"completed":%d,"served":%d,"unserved":%d,"offline":%d}|}
          time
          (if !degraded then "degraded" else "ok")
          (tally.arrivals - r0.arrivals)
          (tally.admitted - r0.admitted)
          (tally.retries - r0.retries)
          (queue_length ()) !tokens !headroom !shortfall live streaming retrying
          (tally.interrupted - r0.interrupted)
          (tally.expired - r0.expired)
          (tally.shed - r0.shed)
          (tally.rejected - r0.rejected)
          (tally.completed - r0.completed)
          report.Engine.served report.Engine.unserved report.Engine.offline_boxes
      done;
      (* the sessions not yet terminal *)
      let live_at_end =
        count Session.Arriving + count Session.Admitted + count Session.Streaming
        + count Session.Retrying
      in
      List.iter (fun (counter, field) -> Registry.add counter (field tally)) obs_totals;
      line
        {|{"type":"verdict","arrivals":%d,"flash":%d,"admitted":%d,"completed":%d,"shed":%d,"rejected":%d,"retries":%d,"retry_sessions":%d,"retry_budget":%d,"interrupted":%d,"expired":%d,"overflow_shed":%d,"overload_shed":%d,"helpers_drafted":%d,"stalled_rounds":%d,"total_unserved":%d,"max_queue":%d,"degraded_rounds":%d,"live_at_end":%d,"ok":%b}|}
        tally.arrivals tally.flash_arrivals tally.admitted tally.completed tally.shed
        tally.rejected tally.retries tally.retry_sessions tally.retry_budget
        tally.interrupted tally.expired tally.overflow_shed tally.overload_shed
        tally.helpers_drafted tally.stalled_rounds tally.total_unserved tally.max_queue
        tally.degraded_rounds live_at_end (totals_ok tally);
      let slo, slo_jsonl = Telemetry.finish slos in
      Ok
        {
          scenario = s;
          seed;
          rounds;
          totals = tally;
          live_at_end;
          slo;
          jsonl = Buffer.contents buf;
          slo_jsonl;
        }

let verdict_ok o = totals_ok o.totals

let slo_breached o = List.exists (fun su -> su.Slo.su_final = Slo.Breach) o.slo
