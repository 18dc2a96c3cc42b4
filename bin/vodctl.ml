(* vodctl — command-line front end to the library.

   Subcommands:
     bounds    derive the Theorem 1/2 parameters and the union bound
     allocate  build an allocation and report balance + adversarial audit
     simulate  drive a workload through the round engine
     attack    drive an adversarial generator and report the outcome
     sweep     threshold sweep over the upload capacity u
     chaos     run a fault-injection scenario with self-healing repair
               (--slo-out writes the vod-slo/1 burn-rate verdict stream,
               --obs-out/--obs-summary capture per-replication traces)
     battery   run a scenario battery into a ranked KPI scorecard
               (--obs-out/--obs-summary capture per-cell traces)
     obs-report  validate, summarise or flamegraph-fold (--flame) a
               vod-obs JSONL trace
     top       live dashboard over a simulate workload or chaos
               scenario: sparklines, SLO burn states, repair backlog  *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of boxes.")

let u_arg =
  Arg.(
    value
    & opt float 2.0
    & info [ "u" ] ~docv:"U" ~doc:"Normalised upload capacity of a box.")

let d_arg =
  Arg.(
    value
    & opt float 4.0
    & info [ "d" ] ~docv:"D" ~doc:"Storage capacity of a box, in videos.")

let c_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "c" ] ~docv:"C"
        ~doc:"Stripes per video; defaults to the Theorem 1 recommendation.")

let k_arg =
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Replicas per stripe.")

let m_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "m" ] ~docv:"M" ~doc:"Catalog size; defaults to the storage bound dn/(k).")

let mu_arg =
  Arg.(
    value & opt float 1.2 & info [ "mu" ] ~docv:"MU" ~doc:"Maximal swarm growth per round.")

let duration_arg =
  Arg.(
    value & opt int 30 & info [ "duration" ] ~docv:"T" ~doc:"Video duration in rounds.")

let rounds_arg =
  Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to simulate.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let scheme_arg =
  Arg.(
    value
    & opt (enum Vod.Schemes.names) Vod.Schemes.Permutation
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Allocation scheme: $(b,permutation), $(b,independent), \
              $(b,round-robin) or $(b,full-replication).")

(* -c: the Theorem 1 recommendation (at most 16) above the threshold,
   2 below it. *)
let stripes ~u ~mu = function
  | Some c -> c
  | None -> if u > 1.0 then min 16 (Vod.Theorem1.recommended_c ~u ~mu) else 2

(* [suffixed "a/b.jsonl" ".rep2"] = "a/b.rep2.jsonl": the per-replication
   (or per-cell) trace naming of chaos/battery --obs-out. *)
let suffixed path tag =
  let dir = Filename.dirname path and base = Filename.basename path in
  let with_tag =
    match Filename.extension base with
    | "" -> base ^ tag
    | ext -> Filename.remove_extension base ^ tag ^ ext
  in
  if dir = "." && not (String.length path > 1 && path.[0] = '.' && path.[1] = '/') then with_tag
  else Filename.concat dir with_tag

(* Span recording goes through a process-global sink, so runs being
   traced must not share the process with concurrent runs: callers
   force their replications/cells sequential and say so when --jobs
   asked for more. *)
let warn_obs_sequential jobs =
  match jobs with
  | Some j when j > 1 ->
      Printf.eprintf
        "note: span recording is process-global; running sequentially despite --jobs %d \
         (the output bytes do not depend on --jobs)\n"
        j
  | _ -> ()

let obs_out_arg ~per =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-out" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Record an observability trace (spans + metrics) %s and write it to FILE \
              as JSONL; inspect it with $(b,vodctl obs-report)."
             per))

let obs_summary_arg ~per =
  Arg.(
    value & flag
    & info [ "obs-summary" ]
        ~doc:
          (Printf.sprintf
             "Record observability traces and print the per-phase timing table and \
              metric counters %s after the output."
             per))

(* Trace capture for --obs-out/--obs-summary: the summaries wait until
   the streams are written. *)
type obs = {
  obs_out : string option;
  obs_summary : bool;
  mutable traces : (string * Vod.Obs.Report.trace) list;
}

let obs_of obs_out obs_summary =
  if obs_out = None && not obs_summary then None
  else Some { obs_out; obs_summary; traces = [] }

(* Run [f] under a fresh recorder and registry, then write its trace
   to [path base] (--obs-out, naming it on stderr as [tag]) and keep its
   summary under [title] (--obs-summary). *)
let traced obs ~tag ~title ~path f =
  Vod.Obs.Registry.reset Vod.Obs.Registry.default;
  let r = Vod.Obs.Span.create_recorder () in
  Vod.Obs.Span.install r;
  let v = f () in
  Vod.Obs.Span.uninstall ();
  Option.iter
    (fun base ->
      let p = path base in
      Vod.Obs.Export.save ~registry:Vod.Obs.Registry.default r ~path:p;
      Printf.eprintf "observability trace (%s) written to %s\n" tag p)
    obs.obs_out;
  if obs.obs_summary then
    obs.traces <-
      (title, Vod.Obs.Report.of_recorder ~registry:Vod.Obs.Registry.default r)
      :: obs.traces;
  v

let print_summaries obs =
  List.iter
    (fun (title, trace) ->
      Printf.printf "--- observability summary: %s ---\n" title;
      Vod.Obs.Report.print_summary trace)
    (List.rev obs.traces)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let bounds_cmd =
  let run n u d mu u_star =
    if u <= 1.0 then begin
      Printf.printf "u = %g <= 1: below the threshold.\n" u;
      Printf.printf
        "The catalog is bounded by m <= d*c for any stripe count c (negative result);\n";
      Printf.printf "e.g. c=4 gives m <= %d.\n"
        (Vod.Theorem1.max_catalog_below_threshold ~d_max:d ~c:4);
      `Ok ()
    end
    else begin
      let t1 = Vod.Theorem1.derive ~u ~mu ~d () in
      Printf.printf "Theorem 1 (homogeneous, u = %g > 1, mu = %g, d = %g):\n" u mu d;
      Printf.printf "  stripes            c  = %d\n" t1.Vod.Theorem1.c;
      Printf.printf "  expansion margin   nu = %.5f\n" t1.Vod.Theorem1.nu;
      Printf.printf "  effective upload   u' = %.4f\n" t1.Vod.Theorem1.u_eff;
      Printf.printf "  d'                    = %.4f\n" t1.Vod.Theorem1.d_prime;
      Printf.printf "  replication bound  k  = %d\n" t1.Vod.Theorem1.k;
      Printf.printf "  catalog at n=%d       = %d videos (dn/k)\n" n
        (Vod.Theorem1.catalog_size t1 ~n);
      let m = max 1 (int_of_float (d *. float_of_int n) / 8) in
      (match
         Vod.Obstruction_bound.min_k_for_target ~u_eff:t1.Vod.Theorem1.u_eff
           ~nu:t1.Vod.Theorem1.nu ~n ~c:t1.Vod.Theorem1.c ~m ~target_log:(log 0.01)
       with
      | Some k ->
          Printf.printf
            "  numeric union bound: k = %d certifies P(obstruction) < 1%% at m = %d\n" k m
      | None -> Printf.printf "  numeric union bound: no k <= 10000 certifies m = %d\n" m);
      (match u_star with
      | None -> ()
      | Some u_star ->
          let t2 = Vod.Theorem2.derive ~u_star ~mu ~d () in
          Printf.printf "\nTheorem 2 (heterogeneous, u* = %g):\n" u_star;
          Printf.printf "  stripes            c  = %d\n" t2.Vod.Theorem2.c;
          Printf.printf "  expansion margin   nu = %.6f\n" t2.Vod.Theorem2.nu;
          Printf.printf "  replication bound  k  = %d\n" t2.Vod.Theorem2.k;
          Printf.printf "  catalog at n=%d       = %d videos\n" n
            (Vod.Theorem2.catalog_size t2 ~n));
      `Ok ()
    end
  in
  let u_star_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"USTAR" ~doc:"Also derive Theorem 2 at this deficiency threshold u*.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Derive the paper's parameter prescriptions.")
    Term.(ret (const run $ n_arg $ u_arg $ d_arg $ mu_arg $ u_star_arg))

(* ------------------------------------------------------------------ *)
(* allocate                                                            *)
(* ------------------------------------------------------------------ *)

let allocate_cmd =
  let run n u d c k m mu seed scheme trials save =
    try
      let { Vod.System.params; fleet; alloc; _ } =
        Vod.System.homogeneous ~seed ~scheme ?m ~n ~u ~d ~c:(stripes ~u ~mu c) ~k ~mu
          ~duration:30 ()
      in
      let c = params.Vod.Params.c in
      let cat = Vod.Allocation.catalog alloc in
      Printf.printf "allocated %d videos x %d stripes x k replicas on %d boxes\n"
        (Vod.Catalog.videos cat) c n;
      let b = Vod.Balance.measure alloc ~fleet ~c in
      Format.printf "balance: %a@." Vod.Balance.pp b;
      let mn, mx, mean = Vod.Balance.replica_spread alloc in
      Printf.printf "replicas per stripe: min %d, max %d, mean %.2f\n" mn mx mean;
      (match Vod.Allocation.validate alloc ~fleet ~c with
      | Ok () -> print_endline "validation: OK"
      | Error e -> Printf.printf "validation: FAILED (%s)\n" e);
      let g = Vod.Prng.create ~seed:(seed + 1) () in
      let ok = Vod.Probe.survives_battery g ~fleet ~alloc ~c ~trials in
      Printf.printf "adversarial audit (%d random probes + worst-case probes): %s\n"
        trials
        (if ok then "PASS" else "FAIL");
      (match save with
      | None -> ()
      | Some path ->
          Vod.Codec.save alloc ~path;
          Printf.printf "allocation written to %s\n" path);
      `Ok ()
    with Invalid_argument e -> `Error (false, e)
  in
  let trials_arg =
    Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Random adversarial probes.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the allocation to FILE (text format).")
  in
  Cmd.v
    (Cmd.info "allocate" ~doc:"Build an allocation; report balance and audit it.")
    Term.(
      ret
        (const run $ n_arg $ u_arg $ d_arg $ c_arg $ k_arg $ m_arg $ mu_arg $ seed_arg
       $ scheme_arg $ trials_arg $ save_arg))

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let workload_arg =
  Arg.(
    value
    & opt (enum [ ("zipf", `Zipf); ("uniform", `Uniform); ("flash", `Flash) ]) `Zipf
    & info [ "workload" ] ~docv:"KIND"
        ~doc:"Demand generator: $(b,zipf), $(b,uniform) or $(b,flash).")

let rate_arg =
  Arg.(
    value & opt float 2.0 & info [ "rate" ] ~docv:"RATE" ~doc:"Mean arrivals per round.")

(* The --workload generator at --rate, on its own stream (seed + 7). *)
let arrivals ~seed ~rate workload =
  let g = Vod.Prng.create ~seed:(seed + 7) () in
  match workload with
  | `Zipf -> Vod.Generators.zipf_arrivals g ~rate ~s:0.9
  | `Uniform -> Vod.Generators.uniform_arrivals g ~rate
  | `Flash -> Vod.Generators.flash_crowd g ~video:0 ~background_rate:rate ()

(* Names of the solver counters worth a one-line summary after a run. *)
let solver_counters =
  [
    "hk.augmenting_paths";
    "dinic.augmenting_paths";
    "pr.pushes";
    "pr.relabels";
  ]

let simulate_cmd =
  let run n u d c k m mu duration rounds seed scheme workload rate csv load obs_out
      obs_summary =
    try
      let sys =
        match load with
        | None ->
            Vod.System.homogeneous ~seed ~scheme ?m ~n ~u ~d ~c:(stripes ~u ~mu c) ~k
              ~mu ~duration ()
        | Some path -> (
            match Vod.Codec.load ~path with
            | Error e -> failwith (Printf.sprintf "cannot load %s: %s" path e)
            | Ok alloc ->
                let n = Vod.Allocation.n_boxes alloc in
                let c =
                  Vod.Catalog.stripes_per_video (Vod.Allocation.catalog alloc)
                in
                {
                  Vod.System.params = Vod.Params.make ~n ~c ~mu ~duration;
                  fleet = Vod.Box.Fleet.homogeneous ~n ~u ~d;
                  alloc;
                  compensation = None;
                })
      in
      let obs = obs_of obs_out obs_summary in
      let simulate () =
        let sim = Vod.System.engine sys in
        let trace = Vod.Trace.create () in
        Vod.Trace.run trace sim ~rounds ~demands_for:(arrivals ~seed ~rate workload);
        (sim, trace)
      in
      let sim, trace =
        match obs with
        | None -> simulate ()
        | Some obs -> traced obs ~tag:"simulate" ~title:"simulate" ~path:Fun.id simulate
      in
      let metrics = Vod.Trace.summarise trace in
      Format.printf "%a@." Vod.Metrics.pp metrics;
      Printf.printf "peak active stripe requests: %d (mean %.1f)\n"
        metrics.Vod.Metrics.peak_active metrics.Vod.Metrics.mean_active;
      Printf.printf "swarming share: %.1f%%\n" (100.0 *. metrics.Vod.Metrics.cache_share);
      let delays = Vod.Engine.startup_delays sim in
      if Array.length delays > 0 then begin
        let fdelays = Array.map float_of_int delays in
        Printf.printf "start-up delay (rounds until all stripes stream): mean %.2f, max %.0f\n"
          (Vod.Stats.mean fdelays)
          (Array.fold_left Float.max 0.0 fdelays)
      end;
      (match metrics.Vod.Metrics.first_failure with
      | None -> print_endline "verdict: every request served on time"
      | Some t -> Printf.printf "verdict: first failed round at t = %d\n" t);
      (match csv with
      | None -> ()
      | Some path ->
          Vod.Trace.save_csv trace ~path;
          Printf.printf "per-round trace written to %s\n" path);
      Option.iter print_summaries obs;
      `Ok ()
    with
    | Invalid_argument e -> `Error (false, e)
    | Failure e -> `Error (false, e)
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the per-round trace to FILE as CSV.")
  in
  let load_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Load the allocation from FILE (written by allocate --save) instead of \
                generating one; -n/-c/-k/-m/--scheme are then ignored.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a demand workload through the round engine.")
    Term.(
      ret
        (const run $ n_arg $ u_arg $ d_arg $ c_arg $ k_arg $ m_arg $ mu_arg
       $ duration_arg $ rounds_arg $ seed_arg $ scheme_arg $ workload_arg $ rate_arg
       $ csv_arg $ load_arg $ obs_out_arg ~per:"of the run"
       $ obs_summary_arg ~per:"of the run"))

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack_cmd =
  let run n u d c k m mu duration rounds seed scheme attack =
    try
      let sim =
        Vod.System.engine
          (Vod.System.homogeneous ~seed ~scheme ?m ~n ~u ~d ~c:(stripes ~u ~mu c) ~k ~mu
             ~duration ())
      in
      let g = Vod.Prng.create ~seed:(seed + 13) () in
      let gen =
        match attack with
        | `Uncovered -> Vod.Attacks.uncovered
        | `Tight -> Vod.Attacks.tight_server_set g
        | `Stampede -> Vod.Attacks.stampede ~video:0
      in
      let reports = Vod.Engine.run sim ~rounds ~demands_for:gen in
      let metrics = Vod.Metrics.summarise reports in
      Format.printf "%a@." Vod.Metrics.pp metrics;
      if metrics.Vod.Metrics.total_unserved = 0 then
        print_endline "verdict: the system RESISTS this adversary"
      else begin
        Printf.printf "verdict: DEFEATED (first failure at round %s)\n"
          (match metrics.Vod.Metrics.first_failure with
          | Some t -> string_of_int t
          | None -> "?");
        match Vod.Engine.last_violator sim with
        | None -> ()
        | Some v ->
            Printf.printf
              "Hall certificate: %d requests over %d server boxes with only %d slots\n"
              (List.length v.Vod.Bipartite.requests)
              (List.length v.Vod.Bipartite.servers)
              v.Vod.Bipartite.server_slots
      end;
      `Ok ()
    with Invalid_argument e -> `Error (false, e)
  in
  let attack_arg =
    Arg.(
      value
      & opt
          (enum [ ("uncovered", `Uncovered); ("tight", `Tight); ("stampede", `Stampede) ])
          `Uncovered
      & info [ "attack" ] ~docv:"KIND"
          ~doc:
            "Adversary: $(b,uncovered) (each box demands a video it does not store), \
             $(b,tight) (concentrate on scarce server sets) or $(b,stampede) \
             (everyone on one video, ignoring mu).")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Drive an adversarial demand sequence against the system.")
    Term.(
      ret
        (const run $ n_arg $ u_arg $ d_arg $ c_arg $ k_arg $ m_arg $ mu_arg
       $ duration_arg $ rounds_arg $ seed_arg $ scheme_arg $ attack_arg))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let run n d c k seed lo hi steps jobs replications sim_rounds =
    if steps < 2 then `Error (false, "need at least 2 steps")
    else if replications < 1 then `Error (false, "need at least 1 replication")
    else begin
      try
        let c = match c with Some c -> c | None -> 2 in
        let jobs =
          match jobs with Some j -> j | None -> Vod.Par.default_jobs ()
        in
        let reps = replications in
        let u_of i =
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (steps - 1))
        in
        (* One task per (point, replication).  Tasks are independent by
           construction: each derives its own PRNG streams from
           (point, rep) — so results are identical whatever the job
           count or backend — builds its own system, and records into a
           private registry that is absorbed after the join. *)
        let task t =
          let i = t / reps and r = t mod reps in
          let u = u_of i in
          let reg = Vod.Obs.Registry.create () in
          Vod.Obs.Registry.incr (Vod.Obs.Registry.counter reg "sweep.replications");
          let seed' = seed + (1000 * i) + r in
          let g = Vod.Prng.create ~seed:seed' () in
          let fleet = Vod.Box.Fleet.homogeneous ~n ~u ~d in
          let m = n in
          let catalog = Vod.Catalog.create ~m ~c in
          match Vod.Schemes.random_permutation g ~fleet ~catalog ~k with
          | exception Invalid_argument _ -> (`Unallocatable, reg)
          | alloc ->
              let battery =
                Vod.Probe.survives_battery g ~fleet ~alloc ~c ~trials:10
              in
              if not battery then
                Vod.Obs.Registry.incr
                  (Vod.Obs.Registry.counter reg "sweep.battery_failures");
              let params = Vod.Params.make ~n ~c ~mu:1.2 ~duration:30 in
              let sim =
                Vod.Engine.create ~params ~fleet ~alloc ~policy:Vod.Engine.Continue ()
              in
              let wg = Vod.Prng.create ~seed:(seed' + 1) () in
              let workload =
                Vod.Generators.uniform_arrivals wg ~rate:(float_of_int n /. 8.0)
              in
              let reports =
                Vod.Engine.run sim ~rounds:sim_rounds ~demands_for:workload
              in
              let metrics = Vod.Metrics.summarise reports in
              Vod.Obs.Registry.add
                (Vod.Obs.Registry.counter reg "sweep.served")
                metrics.Vod.Metrics.total_served;
              Vod.Obs.Registry.add
                (Vod.Obs.Registry.counter reg "sweep.unserved")
                metrics.Vod.Metrics.total_unserved;
              Vod.Obs.Registry.set
                (Vod.Obs.Registry.gauge reg "sweep.peak_active")
                metrics.Vod.Metrics.peak_active;
              (`Ran (battery, metrics.Vod.Metrics.total_unserved), reg)
        in
        let results = Vod.Par.map ~jobs ~f:task (steps * reps) in
        let tbl =
          Vod.Table.create
            ~columns:
              [
                ("u", Vod.Table.Right);
                ("m", Vod.Table.Right);
                ("battery", Vod.Table.Right);
                ("unserved/rep", Vod.Table.Right);
                ("verdict", Vod.Table.Left);
              ]
        in
        for i = 0 to steps - 1 do
          let point = Array.sub results (i * reps) reps in
          let fits =
            Array.for_all (fun (o, _) -> o <> `Unallocatable) point
          in
          if not fits then
            Vod.Table.add_row tbl
              [
                Vod.Table.fmt_float ~decimals:2 (u_of i);
                string_of_int n;
                "-";
                "-";
                "(does not fit)";
              ]
          else begin
            let battery_ok = ref 0 and unserved = ref 0 in
            Array.iter
              (fun (o, _) ->
                match o with
                | `Ran (ok, uns) ->
                    if ok then incr battery_ok;
                    unserved := !unserved + uns
                | `Unallocatable -> ())
              point;
            Vod.Table.add_row tbl
              [
                Vod.Table.fmt_float ~decimals:2 (u_of i);
                string_of_int n;
                Printf.sprintf "%d/%d" !battery_ok reps;
                Vod.Table.fmt_float ~decimals:1
                  (float_of_int !unserved /. float_of_int reps);
                (if !battery_ok = reps && !unserved = 0 then "ok" else "NO");
              ]
          end
        done;
        Vod.Table.print
          ~title:
            (Printf.sprintf
               "Threshold sweep: m = n = %d, c = %d, k = %d (%d reps, %d jobs, %s)"
               n c k reps jobs Vod.Par.backend)
          tbl;
        (* Merge the per-task registries into one aggregate view. *)
        let merged = Vod.Obs.Registry.create () in
        Array.iter (fun (_, reg) -> Vod.Obs.Registry.absorb ~into:merged reg) results;
        let v name =
          Vod.Obs.Registry.counter_value (Vod.Obs.Registry.counter merged name)
        in
        Printf.printf
          "obs: %d replications, %d served, %d unserved, %d battery failures, peak \
           active %d\n"
          (v "sweep.replications") (v "sweep.served") (v "sweep.unserved")
          (v "sweep.battery_failures")
          (Vod.Obs.Registry.gauge_value
             (Vod.Obs.Registry.gauge merged "sweep.peak_active"));
        `Ok ()
      with Invalid_argument e | Failure e -> `Error (false, e)
    end
  in
  let lo_arg = Arg.(value & opt float 0.5 & info [ "from" ] ~docv:"LO" ~doc:"Lowest u.") in
  let hi_arg = Arg.(value & opt float 3.0 & info [ "to" ] ~docv:"HI" ~doc:"Highest u.") in
  let steps_arg = Arg.(value & opt int 9 & info [ "steps" ] ~doc:"Sweep points.") in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:
            "Worker count for running sweep points in parallel (defaults to the \
             backend's recommendation; the sequential fallback on OCaml 4 uses 1).  \
             Results are independent of $(docv).")
  in
  let replications_arg =
    Arg.(
      value
      & opt int 3
      & info [ "replications" ] ~docv:"R"
          ~doc:
            "Independent replications per sweep point, each with its own derived \
             PRNG stream (seed + 1000*point + rep).")
  in
  let sim_rounds_arg =
    Arg.(
      value
      & opt int 40
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Rounds of uniform-arrival simulation per replication.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the upload capacity across the threshold (replications run in \
          parallel).")
    Term.(
      ret
        (const run $ n_arg $ d_arg $ c_arg $ k_arg $ seed_arg $ lo_arg $ hi_arg
       $ steps_arg $ jobs_arg $ replications_arg $ sim_rounds_arg))

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let run n u d mu =
    if u <= 1.0 then
      `Error
        ( false,
          Printf.sprintf
            "u = %g <= 1 is below the threshold: only constant catalogs m <= d*c exist" u )
    else begin
      let t1 = Vod.Theorem1.derive ~u ~mu ~d () in
      Printf.printf "plan for n = %d boxes (u = %g, d = %g, mu = %g):\n\n" n u d mu;
      Printf.printf "guaranteed (Theorem 1): c = %d, k = %d -> %d videos\n"
        t1.Vod.Theorem1.c t1.Vod.Theorem1.k
        (Vod.Theorem1.catalog_size t1 ~n);
      let dn = d *. float_of_int n in
      let certify =
        let rec go k =
          if k > 5000 then None
          else begin
            let m = max 1 (int_of_float (dn /. float_of_int k)) in
            let lp =
              Vod.Obstruction_bound.log_union_bound ~u_eff:t1.Vod.Theorem1.u_eff
                ~nu:t1.Vod.Theorem1.nu ~n ~c:t1.Vod.Theorem1.c ~k ~m
            in
            if lp <= log 0.01 then Some (k, m) else go (k + max 1 (k / 4))
          end
        in
        go 1
      in
      (match certify with
      | Some (k, m) ->
          Printf.printf "certified (union bound, P < 1%%): k = %d -> %d videos\n" k m
      | None -> print_endline "certified (union bound): no k <= 5000 certifies this n");
      let fleet = Vod.Box.Fleet.homogeneous ~n ~u ~d in
      let c = min 16 t1.Vod.Theorem1.c in
      let rec first_k k =
        if k > 12 then None
        else begin
          let m = Vod.Schemes.max_catalog ~fleet ~c ~k in
          let ok =
            List.for_all
              (fun seed ->
                let g = Vod.Prng.create ~seed () in
                let catalog = Vod.Catalog.create ~m ~c in
                let alloc = Vod.Schemes.random_permutation g ~fleet ~catalog ~k in
                Vod.Probe.survives_battery g ~fleet ~alloc ~c ~trials:10)
              [ 1; 2; 3 ]
          in
          if ok then Some (k, m) else first_k (k + 1)
        end
      in
      (match first_k 1 with
      | Some (k, m) ->
          Printf.printf "empirical (adversarial battery, 3 seeds): k = %d -> %d videos\n" k m
      | None -> print_endline "empirical: nothing up to k = 12 survives the battery");
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Capacity planning: guaranteed / certified / empirical catalog sizes.")
    Term.(ret (const run $ n_arg $ u_arg $ d_arg $ mu_arg))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run seed instances scenarios rounds repro_dir replay =
    match replay with
    | Some path -> (
        match Vod.Check.Fuzz.replay ~path with
        | Ok matched ->
            Printf.printf "repro %s: all solvers agree (matched = %d); bug no \
                           longer reproduces\n"
              path matched;
            `Ok ()
        | Error detail -> `Error (false, Printf.sprintf "repro %s: %s" path detail))
    | None when instances < 0 || scenarios < 0 || rounds < 1 ->
        `Error (false, "check: --instances and --scenarios must be >= 0, --rounds >= 1")
    | None ->
        let summary =
          Vod.Check.Fuzz.run ~seed ~instances ~scenarios ~rounds ?repro_dir ()
        in
        Printf.printf
          "differential check (seed %d): %d bipartite instances x %d solvers, %d \
           scenarios x 3 engines (arbitrary, prefer-cache, sticky)\n"
          seed summary.Vod.Check.Fuzz.instances_checked
          (List.length Vod.Check.Oracle.solvers)
          summary.Vod.Check.Fuzz.scenarios_checked;
        Printf.printf
          "engine failure rounds with independently confirmed Hall certificates: %d\n"
          summary.Vod.Check.Fuzz.failure_rounds_certified;
        Printf.printf "obs: %s\n"
          (Vod.Obs.Report.one_line Vod.Obs.Registry.default
             ~names:("fuzz.cases" :: "fuzz.shrink_steps" :: solver_counters));
        (match summary.Vod.Check.Fuzz.failures with
        | [] ->
            print_endline "verdict: all oracles agree";
            `Ok ()
        | failures ->
            List.iter
              (fun f ->
                Printf.printf "FAILURE [%s] seed=%d index=%d: %s%s\n"
                  f.Vod.Check.Fuzz.kind f.Vod.Check.Fuzz.seed f.Vod.Check.Fuzz.index
                  f.Vod.Check.Fuzz.detail
                  (match f.Vod.Check.Fuzz.repro_path with
                  | Some p -> Printf.sprintf " (minimised repro: %s)" p
                  | None -> ""))
              failures;
            `Error (false, Printf.sprintf "%d oracle failure(s)" (List.length failures)))
  in
  let instances_arg =
    Arg.(
      value & opt int 1000
      & info [ "instances" ] ~docv:"N"
          ~doc:"Random bipartite instances for the cross-solver oracle.")
  in
  let scenarios_arg =
    Arg.(
      value & opt int 12
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Random simulator scenarios for the cross-scheduler oracle.")
  in
  let check_rounds_arg =
    Arg.(
      value & opt int 30
      & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per simulator scenario.")
  in
  let repro_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write minimised failing instances to DIR as repro files.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-check a single repro FILE instead of fuzzing.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential verification: cross-solver and cross-scheduler oracles over \
          seeded random instances, with failure shrinking and repro files.")
    Term.(
      ret
        (const run $ seed_arg $ instances_arg $ scenarios_arg $ check_rounds_arg
       $ repro_dir_arg $ replay_arg))

(* ------------------------------------------------------------------ *)
(* Scenario runs: what chaos, serve and battery share                  *)
(* ------------------------------------------------------------------ *)

let scn_override name ~docv ~what =
  Arg.(
    value
    & opt (some int) None
    & info [ name ] ~docv ~doc:(Printf.sprintf "Override the scenario's %s." what))

let scn_rounds_arg = scn_override "rounds" ~docv:"R" ~what:"round count"
let scn_seed_arg = scn_override "seed" ~docv:"SEED" ~what:"seed"

let replications_arg =
  Arg.(
    value & opt int 1
    & info [ "replications" ] ~docv:"N"
        ~doc:"Independent replications (replication $(i,i) runs at seed + 1000*i).")

let jobs_arg ~runs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:
          (Printf.sprintf "Workers for parallel %s; the output is independent of $(docv)."
             runs))

let out_arg ~stream =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:(Printf.sprintf "Write the %s to FILE instead of stdout." stream))

let slo_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo-out" ] ~docv:"FILE"
        ~doc:
          "Write the vod-slo/1 burn-rate stream (the SLOs compiled from the scenario's \
           kpi budgets; serve adds a stall SLO) to FILE; byte-identical at any --jobs.")

let rep_traces =
  "per replication (replication $(i,i) with a .rep$(i,i) suffix when there are several; \
   replications then run one at a time)"

let with_seed seed (s : Vod.Fault.Scenario.t) =
  match seed with Some seed -> { s with Vod.Fault.Scenario.seed } | None -> s

(* The replications of a chaos or serve run, through the driver's
   fan-out.  Traced, they run one at a time (one job), each under its
   own recorder (see warn_obs_sequential), at the same seeds, so the
   streams are the ones a plain run emits. *)
let replicate obs ~jobs ~replications ~run scenario =
  if obs <> None then warn_obs_sequential jobs;
  let jobs = if obs = None then jobs else Some 1 in
  Vod.Fault.Driver.replicate ?jobs ~replications scenario ~run:(fun ~rep ~seed ->
      match obs with
      | None -> run ~seed
      | Some obs ->
          let path base =
            if replications = 1 then base else suffixed base (Printf.sprintf ".rep%d" rep)
          in
          traced obs ~tag:(Printf.sprintf "rep %d" rep)
            ~title:(Printf.sprintf "replication %d" rep)
            ~path
            (fun () -> run ~seed))

(* A stream goes to its FILE, named on stderr as [what], or without
   one to stdout when [stdout]. *)
let write_stream ~what ~stdout file text =
  match file with
  | None -> if stdout then print_string text
  | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      Printf.eprintf "%s written to %s\n" what path

(* Replication streams, concatenated in order: byte-identical at any
   --jobs value. *)
let write_streams ~what ~out ~slo_out outcomes ~jsonl ~slo_jsonl =
  write_stream ~what ~stdout:true out (String.concat "" (List.map jsonl outcomes));
  write_stream ~what:"SLO verdict stream" ~stdout:false slo_out
    (String.concat "" (List.map slo_jsonl outcomes))

let verdict ~bad ~failed runs =
  match List.length (List.filter bad runs) with
  | 0 -> `Ok ()
  | k -> `Error (false, Printf.sprintf "%d of %d %s" k (List.length runs) failed)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Vod.Fault.Chaos in
  let run path rounds seed replications jobs out slo_out obs_out obs_summary =
    if replications < 1 then `Error (false, "need at least 1 replication")
    else
      let obs = obs_of obs_out obs_summary in
      match
        Result.bind (Vod.Fault.Scenario.load ~path) (fun scenario ->
            let scenario = with_seed seed scenario in
            replicate obs ~jobs ~replications scenario ~run:(fun ~seed ->
                Chaos.run ?rounds ~seed scenario))
      with
      | Error e -> `Error (false, e)
      | Ok outcomes ->
          write_streams ~what:"chaos verdict stream" ~out ~slo_out outcomes
            ~jsonl:(fun o -> o.Chaos.jsonl)
            ~slo_jsonl:(fun o -> o.Chaos.slo_jsonl);
          Option.iter print_summaries obs;
          List.iteri
            (fun i (o : Chaos.outcome) ->
              let st = o.stats in
              Printf.eprintf
                "rep %d (seed %d): %s; %d transfers (%d completed, %d aborted, %d \
                 retries), %d replicas installed, %d unrepairable, time to full \
                 replication %s, min online %d, unserved %d, faulted %d\n"
                i o.seed
                (if Chaos.verdict_ok o then "RECOVERED" else "NOT RECOVERED")
                st.started st.completed st.aborted st.retries st.installed o.unrepairable
                (match o.time_to_full_replication with
                | -1 -> "never"
                | t -> Printf.sprintf "%d rounds" t)
                o.min_online o.total_unserved o.total_faulted)
            outcomes;
          verdict ~failed:"replications did not recover"
            ~bad:(fun o -> not (Chaos.verdict_ok o))
            outcomes
  in
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Chaos scenario file (see examples/crash_rejoin.scn).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a named chaos scenario: inject the scripted faults, let the \
          bandwidth-aware repair controller self-heal, and emit a deterministic JSONL \
          verdict stream (exit 0 iff every replication recovered).")
    Term.(
      ret
        (const run $ scenario_arg $ scn_rounds_arg $ scn_seed_arg $ replications_arg
        $ jobs_arg ~runs:"replications"
        $ out_arg ~stream:"JSONL verdict stream"
        $ slo_out_arg
        $ obs_out_arg ~per:rep_traces
        $ obs_summary_arg ~per:"per replication (replications then run one at a time)"))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Serve = Vod.Serve in
  let run scn rounds seed arrivals policy queue_cap retry_budget replications jobs out
      slo_out obs_out obs_summary =
    if replications < 1 then `Error (false, "need at least 1 replication")
    else
      let obs = obs_of obs_out obs_summary in
      let ( let* ) = Result.bind in
      let result =
        let* scenario =
          match scn with
          | Some path -> Vod.Fault.Scenario.load ~path
          | None -> Ok Vod.Fault.Scenario.default
        in
        let* arrivals = Serve.arrivals_of_name arrivals in
        let* shed_policy = Serve.shed_policy_of_name policy in
        let* config =
          try Ok (Serve.config ?queue_cap ?retry_budget ~shed_policy ())
          with Invalid_argument e -> Error e
        in
        let scenario = with_seed seed scenario in
        replicate obs ~jobs ~replications scenario ~run:(fun ~seed ->
            Serve.run ?rounds ~seed ~config ~arrivals scenario)
      in
      match result with
      | Error e -> `Error (false, e)
      | Ok outcomes ->
          write_streams ~what:"serve verdict stream" ~out ~slo_out outcomes
            ~jsonl:(fun o -> o.Serve.jsonl)
            ~slo_jsonl:(fun o -> o.Serve.slo_jsonl);
          Option.iter print_summaries obs;
          List.iteri
            (fun i (o : Serve.outcome) ->
              let t = o.totals in
              Printf.eprintf
                "rep %d (seed %d): %s; %d arrivals (%d flash), %d admitted, %d \
                 completed, %d shed, %d rejected, %d retries over %d sessions, %d \
                 interrupted, %d expired, %d helpers drafted, max queue %d, %d degraded \
                 rounds, unserved %d\n"
                i o.seed
                ((if Serve.verdict_ok o then "GRACEFUL" else "STALLED")
                ^ if Serve.slo_breached o then " (SLO BREACH)" else "")
                t.arrivals t.flash_arrivals t.admitted t.completed t.shed t.rejected
                t.retries t.retry_sessions t.interrupted t.expired t.helpers_drafted
                t.max_queue t.degraded_rounds t.total_unserved)
            outcomes;
          verdict
            ~failed:
              "replications stalled admitted sessions, blew the retry budget or \
               breached an SLO"
            ~bad:(fun o -> (not (Serve.verdict_ok o)) || Serve.slo_breached o)
            outcomes
  in
  let scn_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scn" ] ~docv:"FILE"
          ~doc:
            "Scenario file driving faults, helpers and kpi budgets (default: the \
             built-in crash/rejoin scenario).")
  in
  let arrivals_arg =
    Arg.(
      value & opt string "scenario"
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: $(b,scenario) (the scenario's rate), $(b,poisson:RATE) or \
             $(b,zipf:RATE:S).")
  in
  let policy_arg =
    Arg.(
      value & opt string "newest-first"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Overload shed policy: $(b,newest-first), $(b,lowest-priority) or \
             $(b,helper-first) (draft standby helpers before shedding).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ] ~docv:"N" ~doc:"Bounded arrival-queue length (default 256).")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:"Max retries per session before it is dropped (default 3).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the event-driven service mode: continuous arrivals through admission \
          control (token bucket + measured headroom + the paper's swarm-growth bound), \
          bounded-queue backpressure, deadline-aware retry/recovery, and policy-driven \
          shedding under overload — while the scenario's fault plan fires against the \
          running service.  Emits a deterministic vod-serve/1 JSONL stream; exit 0 iff \
          every replication kept admitted sessions stall-free, within retry budget and \
          inside its SLOs.")
    Term.(
      ret
        (const run $ scn_arg $ scn_rounds_arg $ scn_seed_arg $ arrivals_arg $ policy_arg
        $ queue_cap_arg $ retry_budget_arg $ replications_arg
        $ jobs_arg ~runs:"replications"
        $ out_arg ~stream:"vod-serve/1 JSONL stream"
        $ slo_out_arg
        $ obs_out_arg ~per:rep_traces
        $ obs_summary_arg ~per:"per replication (replications then run one at a time)"))

(* ------------------------------------------------------------------ *)
(* battery                                                             *)
(* ------------------------------------------------------------------ *)

let battery_cmd =
  let module Battery = Vod.Battery.Battery in
  let run paths configs jobs out obs_out obs_summary =
    let collect path =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".scn")
        |> List.sort String.compare
        |> List.map (Filename.concat path)
      else [ path ]
    in
    match List.concat_map collect paths with
    | exception Sys_error e -> `Error (false, e)
    | [] -> `Error (false, "no .scn scenario files found")
    | files -> (
        (* [f] over the list, or its first [Error] *)
        let rec all_ok f = function
          | [] -> Ok []
          | x :: rest ->
              Result.bind (f x) (fun y -> Result.map (List.cons y) (all_ok f rest))
        in
        let config_names =
          String.split_on_char ',' configs |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        match
          ( all_ok (fun path -> Vod.Fault.Scenario.load ~path) files,
            all_ok Vod.Fault.Chaos.config_of_name config_names )
        with
        | Error e, _ | _, Error e -> `Error (false, e)
        | Ok scenarios, Ok configs -> (
            let obs = obs_of obs_out obs_summary in
            (* per-cell recorder; Battery.run goes sequential when a
               wrapper is present, so trace files never interleave *)
            let wrap_cell =
              Option.map
                (fun obs ->
                  warn_obs_sequential jobs;
                  fun ~scenario ~config thunk ->
                    let label =
                      Printf.sprintf "%s.%s" scenario.Vod.Fault.Scenario.name
                        config.Vod.Fault.Chaos.label
                    in
                    traced obs ~tag:label ~title:label
                      ~path:(fun base -> suffixed base ("." ^ label))
                      thunk)
                obs
            in
            match Battery.run ?jobs ?wrap_cell ~configs scenarios with
            | Error e -> `Error (false, e)
            | Ok report ->
                (* scorecard (machine-readable) on stdout or --out; the
                   human-readable ranking goes to stderr so piping the
                   JSONL stays clean *)
                write_stream ~what:"scorecard" ~stdout:true out report.Battery.jsonl;
                Option.iter print_summaries obs;
                prerr_string report.Battery.table;
                verdict ~failed:"cells breached their KPI budgets"
                  ~bad:(fun c -> c.Battery.breaches <> [])
                  report.Battery.cells))
  in
  let paths_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Scenario files, or directories whose .scn files are run in name order.")
  in
  let configs_arg =
    Arg.(
      value
      & opt string "scratch"
      & info [ "configs" ] ~docv:"LIST"
          ~doc:
            "Comma-separated engine configs forming the matrix columns: $(b,scratch), \
             $(b,sticky), $(b,prefer-cache), $(b,balance-load), $(b,round-robin).")
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:
         "Run a scenario battery: every (scenario x engine config) cell through the \
          chaos runner, ranked into a deterministic KPI scorecard (exit 0 iff no cell \
          breaches its declared KPI budgets).")
    Term.(
      ret
        (const run $ paths_arg $ configs_arg $ jobs_arg ~runs:"cells"
        $ out_arg ~stream:"vod-scorecard/1 JSONL"
        $ obs_out_arg
            ~per:
              "per cell (with a .$(i,scenario).$(i,config) suffix; cells then run one \
               at a time)"
        $ obs_summary_arg ~per:"per cell (cells then run one at a time)"))

(* ------------------------------------------------------------------ *)
(* obs-report                                                          *)
(* ------------------------------------------------------------------ *)

let obs_report_cmd =
  let run path validate flame =
    match Vod.Obs.Report.load ~path with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
    | Ok trace when flame ->
        (* collapsed stacks only: pipe into flamegraph.pl / speedscope *)
        if trace.Vod.Obs.Report.dropped > 0 then
          Printf.eprintf
            "warning: %d spans were evicted from the ring; the flamegraph undercounts\n"
            trace.Vod.Obs.Report.dropped;
        print_string (Vod.Obs.Flame.folded trace.Vod.Obs.Report.spans);
        `Ok ()
    | Ok trace -> (
        (* eviction is lossy but structurally legal: warn, never fail *)
        if trace.Vod.Obs.Report.dropped > 0 then
          Printf.eprintf
            "warning: %d spans were evicted from the ring (capacity overflow); the \
             trace is truncated\n"
            trace.Vod.Obs.Report.dropped;
        match Vod.Obs.Report.validate trace with
        | Error e when validate -> `Error (false, Printf.sprintf "%s: INVALID: %s" path e)
        | verdict ->
            if validate then
              Printf.printf "%s: valid (%d spans, %d counters, %d histograms)\n" path
                (List.length trace.Vod.Obs.Report.spans)
                (List.length trace.Vod.Obs.Report.counters)
                (List.length trace.Vod.Obs.Report.hists)
            else
              (* surface structural problems even without --validate, but
                 keep summarising: the table is still informative *)
              (match verdict with
              | Ok () -> ()
              | Error e -> Printf.printf "warning: structural check failed: %s\n" e);
            Vod.Obs.Report.print_summary trace;
            `Ok ())
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace written by simulate --obs-out.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Check the trace's structural invariants (unique span ids, stop >= \
                start, parent containment, histogram totals) and fail on violation.  \
                Ring eviction (nonzero dropped_spans) only warns: a truncated trace \
                is lossy, not broken.")
  in
  let flame_arg =
    Arg.(
      value & flag
      & info [ "flame" ]
          ~doc:"Print the trace's spans as collapsed stacks (one \
                $(b,stack self_ns) line per stack, flamegraph.pl/speedscope input) \
                instead of the summary.")
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:"Validate and summarise an observability trace (JSONL from simulate \
             --obs-out): per-phase timing table, counters, histograms, or collapsed \
             flamegraph stacks with --flame.")
    Term.(ret (const run $ file_arg $ validate_arg $ flame_arg))

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let module Ts = Vod.Obs.Timeseries in
  let module Slo = Vod.Obs.Slo in
  let spark_width = 48 in
  let stat_window = 100 in
  let render ~title ~round ~total ~ts ~series_list ~slos ~footer =
    let b = Buffer.create 2048 in
    let rule = String.make 78 '-' ^ "\n" in
    Buffer.add_string b (Printf.sprintf "%s  round %d/%d\n" title round total);
    Buffer.add_string b rule;
    Buffer.add_string b
      (Printf.sprintf "%-14s %7s  %10s  %8s  %7s  last %d rounds\n" "series" "last"
         "w100 mean" "w100 p95" "max" spark_width);
    List.iter
      (fun name ->
        let s = Ts.series ts name in
        Buffer.add_string b
          (Printf.sprintf "%-14s %7d  %10.1f  %8.0f  %7d  %s\n" name (Ts.last s)
             (Ts.window_mean s ~window:stat_window)
             (Ts.window_percentile s ~window:stat_window 95.0)
             (Ts.window_max s ~window:stat_window)
             (Vod.Obs.Dash.sparkline (Ts.recent s spark_width))))
      series_list;
    if slos <> [] then begin
      Buffer.add_string b rule;
      List.iter
        (fun ev ->
          let sp = Slo.spec_of ev in
          Buffer.add_string b
            (Printf.sprintf "slo %-11s %-8s  fast %6.2fx  slow %6.2fx  (target %.4f)\n"
               sp.Slo.sp_name
               (Slo.state_name (Slo.state ev))
               (Slo.burn ev `Fast) (Slo.burn ev `Slow) sp.Slo.sp_target))
        slos
    end;
    if footer <> [] then begin
      Buffer.add_string b rule;
      List.iter (fun l -> Buffer.add_string b (l ^ "\n")) footer
    end;
    Buffer.contents b
  in
  let run scenario n u d c k m mu duration rounds seed scheme workload rate interval =
    if interval < 1 then `Error (false, "--interval must be >= 1")
    else begin
      let tty = Vod.Obs.Dash.isatty () in
      let first = ref true in
      (* live redraw only on a terminal; otherwise just the final frame,
         so redirected output stays a readable snapshot *)
      let draw ~final frame =
        if tty then begin
          Vod.Obs.Dash.display ~tty:true ~first:!first frame;
          first := false
        end
        else if final then Vod.Obs.Dash.display ~tty:false ~first:false frame
      in
      match scenario with
      | Some path -> (
          (* chaos mode: scenario-defined rounds/seed; the dashboard
             rides the runner's on_round tick *)
          match Vod.Fault.Scenario.load ~path with
          | Error e -> `Error (false, e)
          | Ok s -> (
              let names = Vod.Telemetry.series_names @ [ "under"; "in_flight" ] in
              let ts = Ts.create () in
              List.iter (fun nm -> ignore (Ts.series ts nm)) names;
              let total = s.Vod.Fault.Scenario.rounds in
              let title =
                Printf.sprintf "vodctl top — chaos %s" s.Vod.Fault.Scenario.name
              in
              let last_slos = ref [] and last_footer = ref [] in
              let on_round (tick : Vod.Fault.Chaos.tick) =
                List.iter
                  (fun nm ->
                    Ts.push (Ts.series ts nm)
                      (match nm with
                      | "under" -> tick.Vod.Fault.Chaos.t_under
                      | "in_flight" -> tick.Vod.Fault.Chaos.t_in_flight
                      | nm -> Vod.Telemetry.sample tick.Vod.Fault.Chaos.t_report nm))
                  names;
                last_slos := tick.Vod.Fault.Chaos.t_slos;
                last_footer :=
                  [
                    Printf.sprintf
                      "repair: %d in flight, %d under-replicated (%d unrepairable), %d \
                       installed this round"
                      tick.Vod.Fault.Chaos.t_in_flight tick.Vod.Fault.Chaos.t_under
                      tick.Vod.Fault.Chaos.t_unrepairable tick.Vod.Fault.Chaos.t_installs;
                  ];
                let round = tick.Vod.Fault.Chaos.t_report.Vod.Engine.time in
                if round mod interval = 0 then
                  draw ~final:false
                    (render ~title ~round ~total ~ts ~series_list:names ~slos:!last_slos
                       ~footer:!last_footer)
              in
              match Vod.Fault.Chaos.run ~on_round s with
              | Error e -> `Error (false, e)
              | Ok o ->
                  let verdict =
                    Printf.sprintf "verdict: %s, time to full replication %s, unserved %d"
                      (if Vod.Fault.Chaos.verdict_ok o then "RECOVERED"
                       else "NOT RECOVERED")
                      (match o.Vod.Fault.Chaos.time_to_full_replication with
                      | -1 -> "never"
                      | t -> Printf.sprintf "%d rounds" t)
                      o.Vod.Fault.Chaos.total_unserved
                  in
                  draw ~final:true
                    (render ~title ~round:total ~total ~ts ~series_list:names
                       ~slos:!last_slos
                       ~footer:(!last_footer @ [ verdict ]));
                  `Ok ()))
      | None -> (
          (* simulate mode: drive the engine like `simulate`, with the
             default rejection/startup SLO panel *)
          try
            let sim =
              Vod.System.engine
                (Vod.System.homogeneous ~seed ~scheme ?m ~n ~u ~d ~c:(stripes ~u ~mu c)
                   ~k ~mu ~duration ())
            in
            let tele = Vod.Telemetry.create ~slos:(Vod.Telemetry.default_slos ()) () in
            let title = Printf.sprintf "vodctl top — simulate n=%d" n in
            let series_list = Vod.Telemetry.series_names in
            Vod.Engine.set_round_sink sim
              (Some
                 (fun report ->
                   Vod.Telemetry.observe tele sim report;
                   let round = report.Vod.Engine.time in
                   if round mod interval = 0 then
                     draw ~final:false
                       (render ~title ~round ~total:rounds
                          ~ts:(Vod.Telemetry.timeseries tele) ~series_list
                          ~slos:(Vod.Telemetry.slos tele) ~footer:[])));
            let reports =
              Vod.Engine.run sim ~rounds ~demands_for:(arrivals ~seed ~rate workload)
            in
            let total_unserved =
              List.fold_left (fun acc r -> acc + r.Vod.Engine.unserved) 0 reports
            in
            draw ~final:true
              (render ~title ~round:rounds ~total:rounds
                 ~ts:(Vod.Telemetry.timeseries tele) ~series_list
                 ~slos:(Vod.Telemetry.slos tele)
                 ~footer:
                   [
                     (if total_unserved = 0 then "verdict: every request served on time"
                      else Printf.sprintf "verdict: %d requests went unserved" total_unserved);
                   ]);
            `Ok ()
          with
          | Invalid_argument e -> `Error (false, e)
          | Failure e -> `Error (false, e))
    end
  in
  let scenario_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Optional chaos scenario file: watch a chaos run (scenario rounds/seed) \
             instead of a plain simulate workload.")
  in
  let interval_arg =
    Arg.(
      value & opt int 10
      & info [ "interval" ] ~docv:"R" ~doc:"Redraw the dashboard every R rounds.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live in-terminal dashboard over a run: sparkline time series of the round \
          reports, current SLO burn states and the repair backlog, redrawn in place \
          every --interval rounds (plain ANSI, isatty-gated; redirected output gets \
          the final frame only).")
    Term.(
      ret
        (const run $ scenario_arg $ n_arg $ u_arg $ d_arg $ c_arg $ k_arg $ m_arg
       $ mu_arg $ duration_arg $ rounds_arg $ seed_arg $ scheme_arg $ workload_arg
       $ rate_arg $ interval_arg))

(* ------------------------------------------------------------------ *)
(* proto                                                               *)
(* ------------------------------------------------------------------ *)

let proto_cmd =
  let run n u d c k mu duration rounds seed rate =
    try
      let { Vod.System.params; fleet; alloc; _ } =
        Vod.System.homogeneous ~seed ~n ~u ~d ~c:(stripes ~u ~mu c) ~k ~mu ~duration ()
      in
      let p = Vod.Protocol.create { Vod.Protocol.params; fleet; alloc } in
      let g = Vod.Prng.create ~seed:(seed + 3) () in
      let m = Vod.Catalog.videos (Vod.Allocation.catalog alloc) in
      let issued = ref 0 in
      for round = 1 to rounds do
        if round <= rounds / 2 then begin
          let arrivals = Vod.Sample.poisson g rate in
          for _ = 1 to arrivals do
            let b = Vod.Prng.int g n in
            if Vod.Protocol.is_idle p b then begin
              Vod.Protocol.demand p ~box:b ~video:(Vod.Prng.int g m);
              incr issued
            end
          done
        end;
        Vod.Protocol.step p
      done;
      Printf.printf "demands issued: %d, completed: %d, in flight/stuck: %d\n" !issued
        (Vod.Protocol.completed_demands p)
        (Vod.Protocol.stalled_demands p);
      let delays = Vod.Protocol.startup_delays p in
      if Array.length delays > 0 then begin
        let f = Array.map float_of_int delays in
        Printf.printf "start-up: mean %.1f rounds, p95 %.0f\n" (Vod.Stats.mean f)
          (Vod.Stats.percentile f 95.0)
      end;
      let s = Vod.Protocol.message_stats p in
      Printf.printf
        "messages: counter %d, lookup %d, negotiation %d, registration %d, chunks %d\n"
        s.Vod.Protocol.counter s.Vod.Protocol.lookup s.Vod.Protocol.negotiation
        s.Vod.Protocol.registrations s.Vod.Protocol.chunks;
      Printf.printf "control messages per demand: %.1f\n"
        (Vod.Protocol.control_messages_per_demand p);
      `Ok ()
    with Invalid_argument e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "proto"
       ~doc:"Run the fully decentralised protocol (DHT + negotiation) end to end.")
    Term.(
      ret
        (const run $ n_arg $ u_arg $ d_arg $ c_arg $ k_arg $ mu_arg $ duration_arg
       $ rounds_arg $ seed_arg $ rate_arg))

let () =
  let doc = "peer-to-peer video-on-demand scalability toolbox (IPDPS 2009 reproduction)" in
  let info = Cmd.info "vodctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bounds_cmd;
            allocate_cmd;
            simulate_cmd;
            attack_cmd;
            sweep_cmd;
            plan_cmd;
            check_cmd;
            chaos_cmd;
            serve_cmd;
            battery_cmd;
            obs_report_cmd;
            top_cmd;
            proto_cmd;
          ]))
