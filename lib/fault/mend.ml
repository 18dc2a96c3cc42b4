open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Registry = Vod_obs.Registry

let obs_started = Registry.counter Registry.default "repair.transfers_started"
let obs_completed = Registry.counter Registry.default "repair.transfers_completed"
let obs_aborted = Registry.counter Registry.default "repair.transfers_aborted"
let obs_retries = Registry.counter Registry.default "repair.retries"
let obs_installed = Registry.counter Registry.default "repair.replicas_installed"
let obs_time_to_repair = Registry.histogram Registry.default "repair.time_to_repair"

type config = {
  target_k : int;
  budget : int;
  transfer_rounds : int;
  backoff_base : int;
  backoff_cap : int;
}

let config ?(budget = 4) ?(transfer_rounds = 5) ?(backoff_base = 2) ?(backoff_cap = 32)
    ~target_k () =
  if target_k < 1 then invalid_arg "Mend.config: target_k must be >= 1";
  if budget < 1 then invalid_arg "Mend.config: budget must be >= 1";
  if transfer_rounds < 1 then invalid_arg "Mend.config: transfer_rounds must be >= 1";
  if backoff_base < 1 then invalid_arg "Mend.config: backoff base must be >= 1";
  if backoff_cap < backoff_base then invalid_arg "Mend.config: backoff cap must be >= base";
  { target_k; budget; transfer_rounds; backoff_base; backoff_cap }

let of_scenario (s : Scenario.t) =
  config ~budget:s.Scenario.budget ~transfer_rounds:s.Scenario.transfer_rounds
    ~backoff_base:s.Scenario.backoff_base ~backoff_cap:s.Scenario.backoff_cap
    ~target_k:s.Scenario.target_k ()

type transfer = { stripe : int; dest : int; started : int; detected : int }

type t = {
  cfg : config;
  rng : Prng.t;
  mutable in_flight : transfer list;
  backoff : Backoff.t;  (* per-stripe retry schedule, keyed by stripe id *)
  detected_at : (int, int) Hashtbl.t;  (* stripe -> round first seen under *)
  mutable started : int;
  mutable completed : int;
  mutable aborted : int;
  mutable retries : int;
  mutable installed : int;
  (* [under]: the under-replicated stripes of engine [under_of] at box
     epoch [under_epoch] (see [under_replicated]) *)
  mutable under_of : Engine.t option;
  mutable under_epoch : int;
  mutable under : int list;
  mutable candidates : int array; (* scratch for [tick], n entries once used *)
  mutable free : int array; (* scratch for [tick]'s free slots, likewise *)
  mutable alive : bool array; (* scratch for [under_replicated], likewise *)
}

let create ?(seed = 42) cfg =
  {
    cfg;
    rng = Prng.create ~seed ();
    in_flight = [];
    (* the jitterless policy: repair retries must replay the historical
       base * 2^(a-1) schedule bit for bit *)
    backoff =
      Backoff.create ~policy:Backoff.Exponential ~base:cfg.backoff_base ~cap:cfg.backoff_cap
        ();
    detected_at = Hashtbl.create 16;
    started = 0;
    completed = 0;
    aborted = 0;
    retries = 0;
    installed = 0;
    under_of = None;
    under_epoch = 0;
    under = [];
    candidates = [||];
    free = [||];
    alive = [||];
  }

type stats = {
  started : int;
  completed : int;
  aborted : int;
  retries : int;
  installed : int;
  in_flight : int;
}

let stats (t : t) : stats =
  {
    started = t.started;
    completed = t.completed;
    aborted = t.aborted;
    retries = t.retries;
    installed = t.installed;
    in_flight = List.length t.in_flight;
  }

let attempts_of (t : t) s = Backoff.attempts t.backoff ~key:s

let record_failure (t : t) ~stripe ~time =
  ignore (Backoff.record_failure t.backoff ~key:stripe ~time : Backoff.verdict)

(* The under-replicated stripes against the engine's current allocation
   and online set.  Both change only through mutators that bump
   [Engine.box_epoch], so [Repair.under_replicated] runs again only when
   the epoch moved (or the controller meets another engine): a round
   without a fault event or an install reuses the list. *)
let under_replicated (t : t) e =
  let epoch = Engine.box_epoch e in
  match t.under_of with
  | Some e' when e' == e && t.under_epoch = epoch -> t.under
  | _ ->
      let n = (Engine.params e).Params.n in
      if Array.length t.alive <> n then t.alive <- Array.make n false;
      let alive = t.alive in
      for b = 0 to n - 1 do
        alive.(b) <- Engine.is_online e b
      done;
      let under =
        Vod_alloc.Repair.under_replicated ~alloc:(Engine.alloc e) ~alive
          ~target_k:t.cfg.target_k
      in
      t.under_of <- Some e;
      t.under_epoch <- epoch;
      t.under <- under;
      under

(* Storage slots box [b] has left; 0 for an offline box. *)
let free_slots e ~c alloc b =
  if Engine.is_online e b then
    Box.storage_slots ~c (Engine.fleet e).(b) - Allocation.box_load alloc b
  else 0

(* Does an online box hold stripe [s]? *)
let has_donor e alloc s =
  let holders = Allocation.holders alloc in
  let i = ref (Allocation.row_start alloc s) in
  let stop = !i + Allocation.replica_count alloc s in
  while !i < stop && not (Engine.is_online e holders.(!i)) do
    incr i
  done;
  !i < stop

let tick (t : t) e =
  let time = Engine.now e + 1 in
  let params = Engine.params e in
  let n = params.Params.n and c = params.Params.c in
  (* 1. reap transfers lost to destination crashes (the engine already
     dropped the request with the box) or overrunning their deadline
     (donors saturated for too long: past its [transfer_rounds] plus a
     grace of twice that, give the slot back and retry elsewhere after
     backoff). *)
  let keep, lost =
    List.partition
      (fun tr ->
        Engine.is_online e tr.dest && time <= tr.started + (3 * t.cfg.transfer_rounds))
      t.in_flight
  in
  t.in_flight <- keep;
  List.iter
    (fun tr ->
      if Engine.is_online e tr.dest then
        ignore (Engine.abort_repair e ~stripe:tr.stripe ~dest:tr.dest);
      t.aborted <- t.aborted + 1;
      Registry.incr obs_aborted;
      record_failure t ~stripe:tr.stripe ~time)
    lost;
  (* 2. detect under-replicated stripes against the current allocation *)
  let alloc = Engine.alloc e in
  let under = under_replicated t e in
  let under_set = Hashtbl.create (List.length under) in
  List.iter
    (fun s ->
      Hashtbl.replace under_set s ();
      if not (Hashtbl.mem t.detected_at s) then Hashtbl.replace t.detected_at s time)
    under;
  (* healed without us (e.g. a holder rejoined): forget the detection *)
  let healed =
    Hashtbl.fold
      (fun s _ acc ->
        if Hashtbl.mem under_set s || List.exists (fun tr -> tr.stripe = s) t.in_flight then
          acc
        else s :: acc)
      t.detected_at []
  in
  List.iter
    (fun s ->
      Hashtbl.remove t.detected_at s;
      Backoff.reset t.backoff ~key:s)
    healed;
  (* 3. schedule new transfers under the bandwidth budget.  Free storage
     accounts for slots already promised to in-flight destinations; it
     is filled into the controller's scratch the first time a stripe
     with a live donor is examined, before any transfer of this tick
     starts. *)
  let free_filled = ref false in
  let free () =
    if not !free_filled then begin
      if Array.length t.free < n then t.free <- Array.make n 0;
      for b = 0 to n - 1 do
        t.free.(b) <- free_slots e ~c alloc b
      done;
      List.iter (fun tr -> t.free.(tr.dest) <- t.free.(tr.dest) - 1) t.in_flight;
      free_filled := true
    end;
    t.free
  in
  let slots = ref (t.cfg.budget - List.length t.in_flight) in
  (* Determinism contract (mirrors Vod_alloc.Repair.repair): stripes in
     ascending id order, destination drawn by one shuffle per stripe
     over the ascending-box-id candidate array. *)
  List.iter
    (fun s ->
      if
        !slots > 0
        && (not (List.exists (fun tr -> tr.stripe = s) t.in_flight))
        && Backoff.ready t.backoff ~key:s ~time
      then begin
        if Array.length t.candidates < n then t.candidates <- Array.make n 0;
        let candidates = t.candidates in
        let count =
          if not (has_donor e alloc s) then 0
          else begin
            let free = free () in
            let count = ref 0 in
            for b = 0 to n - 1 do
              (* [free] is 0 on offline boxes *)
              if free.(b) > 0 && not (Allocation.possesses alloc ~box:b ~stripe:s)
              then begin
                candidates.(!count) <- b;
                incr count
              end
            done;
            !count
          end
        in
        if count = 0 then
          (* dead stripe or no storage anywhere: back off and re-examine
             later (a rejoin may make it repairable) *)
          record_failure t ~stripe:s ~time
        else begin
          Sample.shuffle_prefix t.rng candidates ~len:count;
          let dest = candidates.(0) in
          Engine.inject_repair e ~stripe:s ~dest ~rounds:t.cfg.transfer_rounds;
          let detected = try Hashtbl.find t.detected_at s with Not_found -> time in
          t.in_flight <- { stripe = s; dest; started = time; detected } :: t.in_flight;
          t.started <- t.started + 1;
          Registry.incr obs_started;
          if attempts_of t s > 0 then begin
            t.retries <- t.retries + 1;
            Registry.incr obs_retries
          end;
          let free = free () in
          free.(dest) <- free.(dest) - 1;
          decr slots
        end
      end)
    under

let collect (t : t) e =
  let now = Engine.now e in
  match Engine.drain_completed_repairs e with
  | [] -> 0
  | completed ->
      let alloc = Engine.alloc e in
      (* replicas to install, newest first *)
      let fresh = ref [] in
      List.iter
        (fun (stripe, dest) ->
          t.completed <- t.completed + 1;
          Registry.incr obs_completed;
          t.in_flight <-
            List.filter (fun tr -> not (tr.stripe = stripe && tr.dest = dest)) t.in_flight;
          (match Hashtbl.find_opt t.detected_at stripe with
          | Some d -> Registry.observe obs_time_to_repair (max 0 (now - d))
          | None -> ());
          Backoff.reset t.backoff ~key:stripe;
          let held =
            Allocation.possesses alloc ~box:dest ~stripe || List.mem (stripe, dest) !fresh
          in
          if not held then begin
            fresh := (stripe, dest) :: !fresh;
            t.installed <- t.installed + 1;
            Registry.incr obs_installed
          end)
        completed;
      (match !fresh with
      | [] -> ()
      | fresh -> Engine.install e (List.rev fresh));
      List.length !fresh

let pending (t : t) e =
  match under_replicated t e with
  | [] -> ([], [])
  | under ->
      let params = Engine.params e in
      let n = params.Params.n and c = params.Params.c in
      let alloc = Engine.alloc e in
      let free_somewhere s =
        let rec go b =
          b < n
          && ((free_slots e ~c alloc b > 0
              && not (Allocation.possesses alloc ~box:b ~stripe:s))
             || go (b + 1))
        in
        go 0
      in
      List.partition (fun s -> has_donor e alloc s && free_somewhere s) under

let quiesced (t : t) e =
  match t.in_flight with
  | _ :: _ -> false
  | [] ->
      let repairable, _ = pending t e in
      repairable = []
