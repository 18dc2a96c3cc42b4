module B = Vod_graph.Bipartite
module Engine = Vod_sim.Engine

let ( let* ) = Result.bind

(* A deliberately non-uniform edge cost so the min-cost solver is
   exercised on a cost structure resembling the engine's schedulers;
   any cost function must leave the matched cardinality maximal. *)
let probe_cost ~left ~right = (left + (2 * right)) mod 5

let solvers =
  [
    ("dinic", fun bip -> B.solve bip);
    (* The pre-CSR implementations (explicit Flow_network / slot
       expansion) stay on the panel as independent oracles for the
       engine's flat Dinic core. *)
    ("dinic_legacy", Legacy.dinic);
    ("push_relabel_legacy", Legacy.push_relabel);
    ("hopcroft_karp_slots", Legacy.hopcroft_karp);
    ("min_cost_flow", B.solve_min_cost ~edge_cost:probe_cost);
  ]

let solver_agreement inst =
  let bip = Instance.to_bipartite inst in
  let outcomes = List.map (fun (name, solve) -> (name, solve bip)) solvers in
  let* () =
    List.fold_left
      (fun acc (name, o) ->
        let* () = acc in
        match Certificate.check_matching inst o with
        | Ok () -> Ok ()
        | Error m -> Error (Printf.sprintf "%s produced an invalid matching: %s" name m))
      (Ok ()) outcomes
  in
  let counts = List.map (fun (name, o) -> (name, o.B.matched)) outcomes in
  let reference = snd (List.hd counts) in
  let* () =
    if List.for_all (fun (_, m) -> m = reference) counts then Ok ()
    else
      Error
        ("solvers disagree on matched cardinality: "
        ^ String.concat ", "
            (List.map (fun (n, m) -> Printf.sprintf "%s=%d" n m) counts))
  in
  match (B.hall_violator bip, reference = inst.Instance.n_left) with
  | None, true -> Ok reference
  | None, false ->
      Error
        (Printf.sprintf "matching leaves %d requests unserved but no Hall violator"
           (inst.Instance.n_left - reference))
  | Some _, true -> Error "perfect matching alongside a Hall violator"
  | Some v, false -> (
      match Certificate.check_optimal_pair inst (snd (List.hd outcomes)) v with
      | Ok () -> Ok reference
      | Error m -> Error ("Hall certificate rejected: " ^ m))

(* ------------------------------------------------------------------ *)
(* Scheduler differential                                              *)
(* ------------------------------------------------------------------ *)

type sched_outcome = {
  rounds_run : int;
  failure_rounds : int;
  certified_failure_rounds : int;
}

(* Independently audit one engine's failed round: the engine must expose
   the instance and a violator, the checker must confirm the violator,
   and the full solver panel must agree that the engine's matching was
   maximum on that very instance. *)
let audit_failure name engine (report : Engine.round_report) =
  match (Engine.last_violator engine, Engine.last_instance engine) with
  | None, _ -> Error (Printf.sprintf "%s: failed round %d without a Hall violator" name report.Engine.time)
  | _, None -> Error (Printf.sprintf "%s: failed round %d without an instance" name report.Engine.time)
  | Some v, Some bip -> (
      let inst = Instance.of_bipartite bip in
      match Certificate.check_violator inst v with
      | Error m ->
          Error (Printf.sprintf "%s: round %d certificate rejected: %s" name report.Engine.time m)
      | Ok () -> (
          match solver_agreement inst with
          | Error m ->
              Error (Printf.sprintf "%s: round %d failing instance: %s" name report.Engine.time m)
          | Ok maximum ->
              if maximum <> report.Engine.served then
                Error
                  (Printf.sprintf
                     "%s: round %d served %d but the maximum matching is %d" name
                     report.Engine.time report.Engine.served maximum)
              else Ok ()))

let scheduler_agreement ~params ~fleet ~alloc ?compensation ~rounds ~script () =
  let mk scheduler =
    Engine.create ~params ~fleet ~alloc ?compensation ~policy:Engine.Continue ~scheduler ()
  in
  let engines =
    [
      ("arbitrary", mk Engine.Arbitrary);
      ("prefer_cache", mk Engine.Prefer_cache);
      ("sticky", mk Engine.Sticky);
    ]
  in
  let failure_rounds = ref 0 and certified = ref 0 in
  let diverged = ref false in
  let error = ref None in
  let set_error m = if !error = None then error := Some m in
  let round = ref 0 in
  while !error = None && !round < rounds do
    incr round;
    let reports =
      List.map
        (fun (name, e) ->
          let time = Engine.now e + 1 in
          List.iter
            (fun (t, b, v) ->
              if t = time && Engine.is_idle e b then Engine.demand e ~box:b ~video:v)
            script;
          (name, e, Engine.step e))
        engines
    in
    List.iter
      (fun (name, e, r) ->
        if r.Engine.unserved > 0 then begin
          if name = "arbitrary" then incr failure_rounds;
          match audit_failure name e r with
          | Ok () -> incr certified
          | Error m -> set_error m
        end)
      reports;
    (match reports with
    | (_, _, ref_r) :: others when not !diverged ->
        List.iter
          (fun (name, _, r) ->
            if
              r.Engine.served <> ref_r.Engine.served
              || r.Engine.active_requests <> ref_r.Engine.active_requests
              || r.Engine.new_demands <> ref_r.Engine.new_demands
            then
              set_error
                (Printf.sprintf
                   "round %d: %s served %d/%d but arbitrary served %d/%d" !round
                   name r.Engine.served r.Engine.active_requests ref_r.Engine.served
                   ref_r.Engine.active_requests))
          others;
        (* once any scheduler has a deficit the schedulers may stall
           different requests, so per-round counts stop being comparable *)
        if List.exists (fun (_, _, r) -> r.Engine.unserved > 0) reports then
          diverged := true
    | _ -> ())
  done;
  match !error with
  | Some m -> Error m
  | None ->
      Ok
        {
          rounds_run = !round;
          failure_rounds = !failure_rounds;
          certified_failure_rounds = !certified;
        }

(* ------------------------------------------------------------------ *)
(* Chaos-mode repair differential                                      *)
(* ------------------------------------------------------------------ *)

type chaos_outcome = {
  rounds_to_quiesce : int;
  engine_installed : int;
  oracle_added : int;
  oracle_unrepairable : int;
}

let alive_count alloc alive s =
  let count = ref 0 in
  Vod_model.Allocation.iter_holders alloc s (fun b -> if alive.(b) then incr count);
  !count

let chaos_repair_agreement ~params ~fleet ~alloc ~crashed ~target_k ?config ?(seed = 42)
    () =
  let module Mend = Vod_fault.Mend in
  let max_rounds = 500 in
  let n = Array.length fleet in
  let cfg = match config with Some c -> c | None -> Mend.config ~target_k () in
  (* the engine installs into its allocation: give it a copy, so the
     caller's [alloc] is left as it was *)
  let engine =
    Engine.create ~params ~fleet ~alloc:(Vod_model.Allocation.copy alloc)
      ~policy:Engine.Continue ()
  in
  List.iter (fun b -> Engine.set_online engine b false) crashed;
  let alive = Array.init n (Engine.is_online engine) in
  (* static oracle: the whole loss repaired at a stroke, for free *)
  let* oracle_alloc, oracle_report =
    Vod_alloc.Repair.repair (Vod_util.Prng.create ~seed ()) ~fleet ~alloc ~alive ~target_k
  in
  (* live system: the controller pays for every byte in the matching *)
  let mend = Mend.create ~seed:(seed + 101) cfg in
  let rounds = ref 0 in
  while (not (Mend.quiesced mend engine)) && !rounds < max_rounds do
    incr rounds;
    Mend.tick mend engine;
    ignore (Engine.step engine);
    ignore (Mend.collect mend engine)
  done;
  if not (Mend.quiesced mend engine) then
    Error (Printf.sprintf "controller failed to quiesce within %d rounds" max_rounds)
  else begin
    let final = Engine.alloc engine in
    let total = Vod_model.Catalog.total_stripes (Vod_model.Allocation.catalog alloc) in
    let stats = Mend.stats mend in
    let rec check s =
      if s >= total then
        Ok
          {
            rounds_to_quiesce = !rounds;
            engine_installed = stats.Mend.installed;
            oracle_added = oracle_report.Vod_alloc.Repair.replicas_added;
            oracle_unrepairable = oracle_report.Vod_alloc.Repair.unrepairable;
          }
      else
        let live = min target_k (alive_count final alive s) in
        let certified = min target_k (alive_count oracle_alloc alive s) in
        if live <> certified then
          Error
            (Printf.sprintf
               "stripe %d: engine-driven repair converged to %d alive replicas but the \
                static oracle certifies %d"
               s live certified)
        else check (s + 1)
    in
    check 0
  end
