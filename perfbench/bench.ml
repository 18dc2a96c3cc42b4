(* The round benchmark: what a simulated round of `vodctl serve`,
   `vodctl chaos` and `vodctl simulate` costs (wall time, allocation,
   heap) and what it delivers (served and admitted shares), driven
   in-process through the library's public API with jobs = 1.  The
   workloads, the estimators and the noise behind them are described in
   perfbench/README.md.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --nproc P

   Work is fixed per repetition (a workload's rounds and arrival rate
   are virtual, so a slower program still runs the same rounds);
   --seconds only sets how many repetitions a run makes.  The last line
   of stdout is the result object.  A failed output check prints
   "correct": false with no metrics and exits 1. *)

open Vod
module Scenario = Fault.Scenario
module Plan = Fault.Plan
module Chaos = Fault.Chaos
module Span = Obs.Span
module Registry = Obs.Registry

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check_failed msg)) fmt
let now_ns = Obs.Clock.now_ns

(* ------------------------------------------------------------------ *)
(* measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* What one timed region cost.  Every region starts right after
   Gc.compact, so the allocation count repeats exactly and the wall
   time does not carry the previous region's garbage.  The GC counts
   move by a few collections from one region to the next. *)
type cost = { ns : int; alloc : float; minor : int; major : int }

let measure f =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  (* the runtime adds direct major-heap allocations to its totals only
     at the next major slice: finish one, so the count is exact *)
  Gc.full_major ();
  let a1 = Gc.allocated_bytes () in
  ( r,
    {
      ns = t1 - t0;
      alloc = a1 -. a0;
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let minus a b =
  { ns = a.ns - b.ns; alloc = a.alloc -. b.alloc; minor = a.minor - b.minor; major = a.major - b.major }

(* One repetition: the cost of its rounds and what they delivered. *)
type rep = {
  cost : cost;
      (** For serve and chaos the whole run, set-up included, until
          {!run} takes a set-up's allocation out. *)
  built : cost option;  (** Simulate: the build the repetition made. *)
  served : int;  (** Viewer stripe-requests served, summed over rounds. *)
  unserved : int;  (** ... and stalled: each stall is a failed operation. *)
  admitted : int;  (** Admission decisions that admitted ... *)
  decisions : int;  (** ... out of all decisions. *)
  facts : (string * float) list;  (** Layer counters read off the outcome. *)
  stamps : int array;
      (** Clock at the round boundaries the workload can observe: the
          start of every round for serve (the engine's round spans),
          the end of every round for chaos (on_round), the start of the
          first and the end of every round for simulate. *)
}

(* A workload: [build] takes its scenario record to a system ready for
   round 1; [rep] runs one repetition.  [whole] marks the workloads whose
   library call cannot be split at round 1 (Serve.run, Chaos.run): their
   repetition cost includes one build.  [clocked] marks the ones whose
   only round clock is the engine's round spans (Serve.run): every
   repetition records spans, not just the traced ones. *)
type bench = {
  rounds : int;
  build : unit -> unit;
  rep : unit -> rep;
  whole : bool;
  clocked : bool;
}

let round_starts events =
  List.filter_map
    (fun e -> if e.Span.name = "round" then Some e.Span.start_ns else None)
    events
  |> List.sort compare |> Array.of_list

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

let serve_scenario ~seed ~rounds ~rate =
  {
    Scenario.default with
    Scenario.name = "perfbench-serve";
    n = 16384;
    u = 2.0;
    d = 4.0;
    c = 2;
    k = 4;
    m = Some 2048;
    mu = 1.5;
    duration = 15;
    rounds;
    seed;
    rate;
    groups = None;
    helpers = [];
    events = [];
  }

(* The vod-serve/1 stream is the only per-round view Serve.run returns:
   sum its round lines' served/unserved counts. *)
let round_served jsonl =
  let field line key =
    let n = String.length line and k = String.length key in
    let rec find i =
      if i + k > n then fail "serve stream: %S lacks %s" line key
      else if String.sub line i k = key then i + k
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while !stop < n && line.[!stop] >= '0' && line.[!stop] <= '9' do
      incr stop
    done;
    int_of_string (String.sub line start (!stop - start))
  in
  let prefix = {|{"type":"round"|} in
  List.fold_left
    (fun (s, u) line ->
      if String.length line >= String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then (s + field line {|,"served":|}, u + field line {|,"unserved":|})
      else (s, u))
    (0, 0)
    (String.split_on_char '\n' jsonl)

let serve_bench ~seed ~rounds ~rate ~config =
  let scenario = serve_scenario ~seed ~rounds ~rate in
  let run rounds =
    match Serve.run ~rounds ~config scenario with
    | Ok o -> o
    | Error e -> fail "Serve.run: %s" e
  in
  let rep () =
    let clock =
      match Span.installed () with
      | Some r -> r
      | None -> fail "serve: no span recorder to clock the rounds"
    in
    let o, cost = measure (fun () -> Span.with_ ~name:"serve.run" (fun () -> run rounds)) in
    let stamps = round_starts (Span.events clock) in
    if Array.length stamps <> rounds then
      fail "serve: %d engine round spans for %d rounds" (Array.length stamps) rounds;
    let t = o.Serve.totals in
    if not (Serve.verdict_ok o) then
      fail "serve: verdict not ok (unserved %d, retries %d over %d retrying sessions)"
        t.Serve.total_unserved t.Serve.retries t.Serve.retry_sessions;
    let ended = t.Serve.completed + t.Serve.shed + t.Serve.rejected + o.Serve.live_at_end in
    if t.Serve.arrivals <> ended then
      fail "serve: sessions not conserved: %d arrivals, %d completed + shed + rejected + live"
        t.Serve.arrivals ended;
    let served, unserved = round_served o.Serve.jsonl in
    let per x = float_of_int x /. float_of_int rounds in
    {
      cost;
      built = None;
      served;
      unserved;
      admitted = t.Serve.admitted;
      decisions = t.Serve.admitted + t.Serve.shed + t.Serve.rejected;
      facts =
        [
          ("serve.admitted_per_round", per t.Serve.admitted);
          ("serve.shed_per_round", per t.Serve.shed);
          ("serve.overflow_shed_per_round", per t.Serve.overflow_shed);
          ("serve.expired_per_round", per t.Serve.expired);
          ("serve.retries_per_round", per t.Serve.retries);
          ("serve.max_queue", float_of_int t.Serve.max_queue);
          ("serve.degraded_rounds", float_of_int t.Serve.degraded_rounds);
        ];
      stamps;
    }
  in
  { rounds; build = (fun () -> ignore (run 0)); rep; whole = true; clocked = true }

let chaos_groups = 32

(* The outage: one topology group crashes a third of the way in and
   rejoins at two thirds. *)
let crash_round rounds = rounds / 3

(* chaos-outage is the n=16384, m=12288, Poisson 200/round system at half
   size in all three, so a repetition is short enough for a run to make
   about twelve (see README.md).  It runs scenario seed --seed mod groups
   and crashes the group of that number.  A group that holds every
   replica of some stripe stalls that stripe's viewers for the whole
   outage, whatever the program does, and costs its rounds 2-3x more.
   Under the placement Chaos.run made when the size was chosen, no
   scenario seed in 0..31 stalls a viewer.  The seeds depend on --seed
   alone, not on the library under test, and a change that puts a whole
   stripe in a crashed group shows as a served_share below 1. *)
let chaos_scenario ~seed ~rounds =
  let seed = ((seed mod chaos_groups) + chaos_groups) mod chaos_groups in
  {
    Scenario.default with
    Scenario.name = "perfbench-chaos";
    n = 8192;
    u = 2.0;
    d = 4.0;
    c = 4;
    k = 4;
    m = Some 6144;
    mu = 1.2;
    duration = 30;
    rounds;
    seed;
    rate = 100.0;
    groups = Some chaos_groups;
    target_k = 3;
    budget = 16;
    helpers = [];
    events =
      [ (crash_round rounds, Plan.Group_crash seed); (2 * rounds / 3, Plan.Group_rejoin seed) ];
  }

let chaos_bench ~seed ~rounds =
  let scenario = chaos_scenario ~seed ~rounds in
  (* Chaos.run feeds its arrivals through Engine.try_demand and counts
     the refusals here; the admissions are the rounds' new demands *)
  let queued = Registry.counter Registry.default "fault.demands_queued"
  and refused = Registry.counter Registry.default "fault.demands_rejected" in
  let run ?on_round rounds =
    match Chaos.run ~rounds ?on_round scenario with
    | Ok o -> o
    | Error e -> fail "Chaos.run: %s" e
  in
  let rep () =
    let stamps = Array.make rounds 0 and next = ref 0 in
    let on_round (_ : Chaos.tick) =
      stamps.(!next) <- now_ns ();
      incr next
    in
    let q0 = Registry.counter_value queued and r0 = Registry.counter_value refused in
    let o, cost =
      measure (fun () -> Span.with_ ~name:"fault.run" (fun () -> run ~on_round rounds))
    in
    if not o.Chaos.recovered then
      fail "chaos: the run ended unrecovered (%d stripes unrepairable)" o.Chaos.unrepairable;
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 o.Chaos.reports in
    let served = sum (fun r -> r.Engine.served)
    and unserved = sum (fun r -> r.Engine.unserved)
    and admitted = sum (fun r -> r.Engine.new_demands)
    and repair_served = sum (fun r -> r.Engine.repair_served) in
    let refusals = Registry.counter_value queued - q0 + (Registry.counter_value refused - r0) in
    let st = o.Chaos.stats in
    {
      cost;
      built = None;
      served;
      unserved;
      admitted;
      decisions = admitted + refusals;
      facts =
        [
          ("fault.repair_started", float_of_int st.Fault.Mend.started);
          ("fault.repair_completed", float_of_int st.Fault.Mend.completed);
          ("fault.replicas_installed", float_of_int st.Fault.Mend.installed);
          ("fault.repair_aborted", float_of_int st.Fault.Mend.aborted);
          ( "fault.repair_slot_share",
            float_of_int repair_served /. float_of_int (max 1 (served + repair_served)) );
        ];
      stamps;
    }
  in
  { rounds; build = (fun () -> ignore (run 0)); rep; whole = true; clocked = false }

let sim_bench ~seed ~rounds =
  let build () =
    let sys =
      Span.with_ ~name:"alloc.placement" (fun () ->
          System.homogeneous ~seed ~m:8192 ~n:65536 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
            ~duration:15 ())
    in
    Span.with_ ~name:"sim.create" (fun () ->
        Engine.create ~params:sys.System.params ~fleet:sys.System.fleet ~alloc:sys.System.alloc
          ~policy:Engine.Continue ())
  in
  let rep () =
    let engine, built = measure build in
    let arrivals = Generators.uniform_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate:500.0 in
    let served = ref 0 and unserved = ref 0 and admitted = ref 0 and decisions = ref 0 in
    let stamps = Array.make (rounds + 1) 0 in
    let (), cost =
      measure (fun () ->
          stamps.(0) <- now_ns ();
          for i = 1 to rounds do
            let time = Engine.now engine + 1 in
            let demands = Span.with_ ~name:"workload.gen" (fun () -> arrivals engine time) in
            List.iter
              (fun (box, video) ->
                incr decisions;
                match Engine.try_demand engine ~box ~video with
                | Engine.Admitted -> incr admitted
                | Engine.Queued | Engine.Rejected _ -> ())
              demands;
            let r = Engine.step engine in
            served := !served + r.Engine.served;
            unserved := !unserved + r.Engine.unserved;
            stamps.(i) <- now_ns ()
          done)
    in
    (* Theorem 1: above the upload threshold nothing goes unserved *)
    if !unserved > 0 then fail "simulate: %d stripe requests unserved above the threshold" !unserved;
    {
      cost;
      built = Some built;
      served = !served;
      unserved = !unserved;
      admitted = !admitted;
      decisions = !decisions;
      facts = [];
      stamps;
    }
  in
  { rounds; build = (fun () -> ignore (build ())); rep; whole = false; clocked = false }

(* Per workload: rounds per repetition, set-up builds timed, and the
   nominal seconds one repetition takes on the reference machine (it
   only turns --seconds into a repetition count, so the work of a run
   never depends on how fast it goes). *)
type sizing = {
  name : string;
  rounds : int;
  builds : int;
  rep_s : float;
  make : seed:int -> rounds:int -> bench;
}

let workloads =
  [
    {
      name = "serve-steady";
      rounds = 300;
      builds = 48;
      rep_s = 3.3;
      make = serve_bench ~rate:200.0 ~config:Serve.default_config;
    };
    {
      name = "serve-storm";
      rounds = 30;
      builds = 48;
      rep_s = 1.25;
      make = serve_bench ~rate:2000.0 ~config:(Serve.config ~queue_cap:512 ());
    };
    { name = "chaos-outage"; rounds = 120; builds = 24; rep_s = 2.0; make = chaos_bench };
    { name = "simulate-64k"; rounds = 40; builds = 16; rep_s = 1.2; make = sim_bench };
  ]

(* ------------------------------------------------------------------ *)
(* per-layer split of a traced repetition                              *)
(* ------------------------------------------------------------------ *)

let ms ns = float_of_int ns /. 1e6
let mean = Stats.mean

let layer_metrics ~rounds ~(events : Span.event list) (r : rep) =
  let dur e = e.Span.stop_ns - e.Span.start_ns in
  let named name = List.filter (fun e -> e.Span.name = name) events in
  let total name = ms (List.fold_left (fun acc e -> acc + dur e) 0 (named name)) in
  let per_round name = total name /. float_of_int rounds in
  let steps =
    Array.of_list (List.sort (fun a b -> compare a.Span.start_ns b.Span.start_ns) (named "round"))
  in
  if Array.length steps <> rounds then
    fail "trace: %d engine round spans for %d rounds" (Array.length steps) rounds;
  (* between two engine steps the caller's own loop runs: the gap from
     one round span's start to the next, minus the earlier span *)
  let gaps = Array.init (rounds - 1) (fun i -> steps.(i + 1).Span.start_ns - steps.(i).Span.start_ns) in
  let outside = Array.init (rounds - 1) (fun i -> ms (gaps.(i) - dur steps.(i))) in
  let tenth = max 1 ((rounds - 1) / 10) in
  let step_ms = Array.map (fun e -> ms (dur e)) steps in
  let gap_ms = Array.map ms gaps in
  let pct a p = Stats.percentile_nearest_rank a p in
  let serve_layer = named "serve.run" <> [] in
  let fault_layer = named "fault.run" <> [] in
  let serve_self =
    if serve_layer then
      [
        ("serve.self_ms", mean outside);
        ("serve.self_ms_first", mean (Array.sub outside 0 tenth));
        ("serve.self_ms_last", mean (Array.sub outside (rounds - 1 - tenth) tenth));
      ]
    else []
  in
  let fault_self =
    if fault_layer then
      (* a tick closes each round: between two ticks the chaos loop runs
         its fault events, arrivals and Mend around one engine step *)
      let between =
        Array.init (rounds - 1) (fun i -> r.stamps.(i + 1) - r.stamps.(i) - dur steps.(i + 1))
      in
      let c = crash_round rounds in
      [
        ("fault.self_ms", mean (Array.map ms between));
        ("fault.outage_round_ms", ms (r.stamps.(c - 1) - r.stamps.(c - 2)));
      ]
    else []
  in
  serve_self @ fault_self
  @ [
      ("sim.step_ms_p50", pct step_ms 50.0);
      ("sim.step_ms_p95", pct step_ms 95.0);
      ("sim.step_samples", float_of_int rounds);
      ("sim.demand_admit_ms", per_round "demand-admit");
      ("sim.build_ms", per_round "build");
      ("graph.matching_ms", per_round "matching");
      ("sim.account_ms", per_round "account");
      ( "sim.active_requests",
        float_of_int (r.served + r.unserved) /. float_of_int rounds );
      ("alloc.placement_ms", total "alloc.placement");
      ("sim.create_ms", total "sim.create");
      ("workload.gen_ms", per_round "workload.gen");
      ("round.interval_ms_p50", pct gap_ms 50.0);
      ("round.interval_ms_p95", pct gap_ms 95.0);
      ("round.interval_samples", float_of_int (rounds - 1));
    ]
  @ r.facts

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("round_ms", "ms");
    ("alloc_mb_per_round", "MB");
    ("peak_heap_mb", "MB");
    ("served_share", "ratio");
    ("admitted_share", "ratio");
  ]

(* Every name a traced run reports, in BENCHMARK.json order.  A layer the
   workload does not run reports 0 (the table printed above the result
   marks it "-"). *)
let per_layer =
  [
    ("serve.self_ms", "ms");
    ("serve.self_ms_first", "ms");
    ("serve.self_ms_last", "ms");
    ("serve.admitted_per_round", "count");
    ("serve.shed_per_round", "count");
    ("serve.overflow_shed_per_round", "count");
    ("serve.expired_per_round", "count");
    ("serve.retries_per_round", "count");
    ("serve.max_queue", "count");
    ("serve.degraded_rounds", "count");
    ("fault.self_ms", "ms");
    ("fault.outage_round_ms", "ms");
    ("fault.repair_started", "count");
    ("fault.repair_completed", "count");
    ("fault.replicas_installed", "count");
    ("fault.repair_aborted", "count");
    ("fault.repair_slot_share", "ratio");
    ("sim.step_ms_p50", "ms");
    ("sim.step_ms_p95", "ms");
    ("sim.step_samples", "count");
    ("sim.demand_admit_ms", "ms");
    ("sim.build_ms", "ms");
    ("sim.account_ms", "ms");
    ("sim.active_requests", "count");
    ("graph.matching_ms", "ms");
    ("graph.bfs_phases_per_round", "count");
    ("graph.augmenting_paths_per_round", "count");
    ("graph.matched_per_round", "count");
    ("alloc.placement_ms", "ms");
    ("sim.create_ms", "ms");
    ("workload.gen_ms", "ms");
    ("gc.minor_per_round", "count");
    ("gc.major_per_round", "count");
    ("round.interval_ms_p50", "ms");
    ("round.interval_ms_p95", "ms");
    ("round.interval_samples", "count");
    ("trace.round_ms", "ms");
    ("trace.untraced_round_ms", "ms");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
  ]

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else fail "non-finite metric value %f" x

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v) unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    (max 1 attempted) failed (String.concat ", " body);
  print_newline ()

let attempted = ref 0
let failed = ref 0

let record (r : rep) =
  attempted := !attempted + r.served + r.unserved;
  failed := !failed + r.unserved;
  r

(* Every round the benchmark sees is timed on its own, and each counts
   at its fastest across the repetitions (the work of round i is the
   same in every repetition), so the estimate keeps the quietest moment
   the run saw for each round, see README.md. *)
let round_ms (reps : rep list) =
  match reps with
  | [] -> invalid_arg "round_ms: no repetition"
  | r0 :: _ ->
      let n = Array.length r0.stamps - 1 in
      let total = ref 0 in
      for i = 0 to n - 1 do
        total :=
          !total
          + List.fold_left (fun acc r -> min acc (r.stamps.(i + 1) - r.stamps.(i))) max_int reps
      done;
      ms !total /. float_of_int n

(* served_share and admitted_share are exact at a fixed seed, so every
   repetition of a run must reproduce them; allocation too, when the
   repetitions run the same code (tracing allocates its events). *)
let check_repeats ~alloc = function
  | [] -> ()
  | (r0 : rep) :: rest ->
      List.iteri
        (fun i (r : rep) ->
          if (r.served, r.unserved, r.admitted, r.decisions)
             <> (r0.served, r0.unserved, r0.admitted, r0.decisions)
          then fail "repetition %d served/admitted counts differ from repetition 1" (i + 2);
          if alloc && r.cost.alloc <> r0.cost.alloc then
            fail "repetition %d allocated %.0f bytes, repetition 1 %.0f" (i + 2) r.cost.alloc
              r0.cost.alloc)
        rest

let run (w : sizing) ~seed ~seconds ~trace ~nproc =
  let b = w.make ~seed ~rounds:w.rounds in
  let rounds = float_of_int b.rounds in
  let reps = max 2 (min 24 (int_of_float (Float.round (float_of_int seconds /. w.rep_s)))) in
  (* the traced run alternates untraced and traced repetitions, so drift
     in the machine hits both sides of the overhead alike *)
  let reps = if trace then max 4 (reps + (reps mod 2)) else reps in
  let is_traced i = trace && i mod 2 = 1 in
  (* Set-up samples: [builds] timed builds, spread over the run a few
     before each repetition so that one noisy stretch of the machine
     cannot hold them all; simulate adds each repetition's own build.
     The first build of a process runs cold and is discarded.  The
     fastest build counts, for the reason the fastest rounds do. *)
  let per_rep = max 1 ((w.builds + reps - 1) / reps) in
  let setups = ref [] in
  b.build ();
  let recorder = Span.create_recorder ~capacity:((16 * b.rounds) + 4096) () in
  let counter name = Registry.counter_value (Registry.counter Registry.default name) in
  let repetition i =
    for _ = 1 to per_rep do
      setups := snd (measure b.build) :: !setups
    done;
    let phases = counter "dinic.bfs_phases" and paths = counter "dinic.augmenting_paths" in
    if is_traced i || b.clocked then begin
      Span.clear recorder;
      Span.install recorder
    end;
    let r = Fun.protect ~finally:Span.uninstall b.rep in
    Option.iter (fun c -> setups := c :: !setups) r.built;
    let per x = float_of_int x /. rounds in
    record
      {
        r with
        facts =
          r.facts
          @ [
              ("graph.bfs_phases_per_round", per (counter "dinic.bfs_phases" - phases));
              ("graph.augmenting_paths_per_round", per (counter "dinic.augmenting_paths" - paths));
            ];
      }
  in
  let raw = List.init reps repetition in
  let setups = List.rev !setups in
  let setup = List.fold_left (fun a c -> if c.ns < a.ns then c else a) (List.hd setups) setups in
  let rs = if b.whole then List.map (fun r -> { r with cost = minus r.cost setup }) raw else raw in
  let untraced = List.filteri (fun i _ -> not (is_traced i)) rs
  and traced = List.filteri (fun i _ -> is_traced i) rs in
  check_repeats ~alloc:false rs;
  check_repeats ~alloc:true untraced;
  let list f xs = String.concat ", " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) xs) in
  Printf.printf
    {|context {"workload": "%s", "seed": %d, "ocaml": "%s", "nproc": %d, "jobs": 1, "domains": 1, "rounds_timed": %d, "repetitions": %d, "setup_builds": %d, "trace": %d, "clock": "Obs.Clock (gettimeofday, 1 us)", "round_ms_per_repetition": [%s], "setup_ms_per_build": [%s]}|}
    w.name seed Sys.ocaml_version nproc
    (Array.length (List.hd rs).stamps - 1)
    reps (List.length setups)
    (if trace then 1 else 0)
    (list (fun r -> round_ms [ r ]) rs)
    (list (fun c -> ms c.ns) setups);
  print_newline ();
  let metrics =
    if not trace then begin
      let r = List.hd rs in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
      List.map2
        (fun (name, unit) v -> (name, unit, v))
        end_to_end
        [
          float_of_int setup.ns /. 1e9;
          round_ms rs;
          r.cost.alloc /. rounds /. 1e6;
          float_of_int heap /. 1e6;
          float_of_int r.served /. float_of_int (r.served + r.unserved);
          float_of_int r.admitted /. float_of_int r.decisions;
        ]
    end
    else begin
      if Span.dropped recorder > 0 then
        fail "trace: the span ring dropped %d events" (Span.dropped recorder);
      (* the recorder holds the last traced repetition *)
      let events = Span.events recorder in
      let last = List.nth rs (reps - 1) and quiet = List.nth rs (reps - 2) in
      let traced_ms = round_ms traced
      and untraced_ms = round_ms untraced in
      let per x = float_of_int x /. rounds in
      let measured =
        layer_metrics ~rounds:b.rounds ~events last
        @ [
            ("graph.matched_per_round", per last.served);
            ("gc.minor_per_round", per quiet.cost.minor);
            ("gc.major_per_round", per quiet.cost.major);
            ("trace.round_ms", traced_ms);
            ("trace.untraced_round_ms", untraced_ms);
            ("trace.overhead_pct", 100.0 *. ((traced_ms /. untraced_ms) -. 1.0));
            ("trace.spans", float_of_int (List.length events));
          ]
      in
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name measured with
          | Some v -> Printf.printf "  %-34s %14.4f %s\n" name v unit
          | None -> Printf.printf "  %-34s %14s (layer not run)\n" name "-")
        per_layer;
      List.map
        (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name measured) ~default:0.0))
        per_layer
    end
  in
  if not trace then
    List.iter (fun (name, unit, v) -> Printf.printf "  %-20s %14.4f %s\n" name v unit) metrics;
  print_result ~correct:true ~attempted:!attempted ~failed:!failed metrics

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let nproc = ref 0 in
  let usage =
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_int seconds, "S measuring time, sets the repetition count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer split (1)");
      ("--nproc", Arg.Set_int nproc, "P processor count, recorded in the context line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w = List.find_opt (fun w -> w.name = !workload) workloads in
  match (w, !seed) with
  | Some w, Some seed when !seconds >= 1 && (!trace = 0 || !trace = 1) -> (
      try run w ~seed ~seconds:!seconds ~trace:(!trace = 1) ~nproc:!nproc
      with Check_failed msg ->
        Printf.printf "check failed: %s\n" msg;
        print_result ~correct:false ~attempted:!attempted ~failed:!failed [];
        exit 1)
  | _ ->
      prerr_endline usage;
      exit 2
