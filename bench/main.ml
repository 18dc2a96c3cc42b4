(* Benchmark harness entry point.

   1. Runs the reproduction experiments E1-E20 (each regenerates one of
      the paper's claims as a printed table; see EXPERIMENTS.md).
   2. Runs Bechamel micro-benchmarks of the performance-critical
      substrate: the engine's matcher against the legacy oracle
      solvers, allocation construction and the simulator round loop.
   3. Runs the connection-matching benchmark (bench_matching.ml) and,
      with [--json PATH], writes its records as machine-readable JSON
      for the CI regression gate (bench/compare.exe).  The same record
      set carries the kernel micro-records (bench_kernels.ml) and, with
      [--json] only (a minute or two and ~0.5 GB), simulate rounds at
      n = 262144 and 1e6 (bench_sim.ml).  The serve loop is timed by
      perfbench/ (serve-steady, serve-storm), not here.

   Run with:            dune exec bench/main.exe
   Skip micro-benches:  dune exec bench/main.exe -- --no-micro
   Skip experiments:    dune exec bench/main.exe -- --quick
   Kernel smoke only:   dune exec bench/main.exe -- --smoke --json OUT
                        (pinned CSR Dinic gate point + kernel micros, for
                        the CI ceiling check)
   Emit bench records:  dune exec bench/main.exe -- --json BENCH_matching.json
   Observability:       dune exec bench/main.exe -- --obs  (record spans/metrics
                        around the matching bench and print the summary)
   Overhead gate:       dune exec bench/main.exe -- --obs-gate BASE  (only the
                        telemetry on/off pair; writes BASE_off.json and
                        BASE_on.json for bench/compare.exe — see bench_obs.ml) *)

open Vod

let make_matching_instance ~seed ~n_left ~n_right =
  let g = Prng.create ~seed () in
  let right_cap = Array.init n_right (fun _ -> 1 + Prng.int g 4) in
  Bipartite.create ~n_left ~n_right ~right_cap ~fill:(fun _ emit ->
      let deg = 1 + Prng.int g 4 in
      for _ = 1 to deg do
        emit (Prng.int g n_right)
      done)

let micro_benchmarks () =
  let open Bechamel in
  let solver_test name solve =
    Test.make ~name
      (Staged.stage (fun () ->
           let inst = make_matching_instance ~seed:3 ~n_left:512 ~n_right:128 in
           ignore (solve inst : Bipartite.outcome)))
  in
  let alloc_test =
    Test.make ~name:"random_permutation n=256 m=256 c=2 k=4"
      (Staged.stage (fun () ->
           let g = Prng.create ~seed:5 () in
           let fleet = Box.Fleet.homogeneous ~n:256 ~u:2.0 ~d:4.0 in
           let catalog = Catalog.create ~m:256 ~c:2 in
           ignore (Schemes.random_permutation g ~fleet ~catalog ~k:4)))
  in
  let step_test =
    Test.make ~name:"engine: 20 rounds, n=64, zipf load"
      (Staged.stage (fun () ->
           let sim =
             System.engine
               (System.homogeneous ~seed:7 ~m:32 ~n:64 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
                  ~duration:15 ())
           in
           let wg = Prng.create ~seed:9 () in
           let gen = Generators.zipf_arrivals wg ~rate:2.0 ~s:0.9 in
           ignore (Engine.run sim ~rounds:20 ~demands_for:gen)))
  in
  let ring_test =
    Test.make ~name:"dht: 400 lookups on a 1024-node ring"
      (Staged.stage (fun () ->
           let d = Directory.create ~nodes:(List.init 1024 Fun.id) in
           let g = Prng.create ~seed:11 () in
           for _ = 1 to 400 do
             ignore (Directory.resolve d ~origin:(Prng.int g 1024) ~stripe:(Prng.int g 100_000))
           done))
  in
  let obstruction_test =
    Test.make ~name:"union bound n=64 c=2 k=8"
      (Staged.stage (fun () ->
           ignore
             (Obstruction_bound.log_union_bound ~u_eff:2.0 ~nu:(1.0 /. 12.0) ~n:64 ~c:2
                ~k:8 ~m:16)))
  in
  let tests =
    Test.make_grouped ~name:"vod"
      [
        solver_test "matching: dinic 512x128" (fun inst -> Bipartite.solve inst);
        solver_test "matching: push-relabel legacy 512x128" Check.Legacy.push_relabel;
        solver_test "matching: hopcroft-karp slots 512x128" Check.Legacy.hopcroft_karp;
        alloc_test;
        step_test;
        ring_test;
        obstruction_test;
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 300) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  print_newline ();
  print_endline "=== Bechamel micro-benchmarks (monotonic clock, ns/run) ===";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-42s %12.0f ns/run\n" name est
      | _ -> Printf.printf "%-42s (no estimate)\n" name)
    results

let flag_arg name =
  let path = ref None in
  Array.iteri
    (fun i a ->
      if a = name then
        if i + 1 < Array.length Sys.argv then path := Some Sys.argv.(i + 1)
        else begin
          prerr_endline (name ^ " requires a PATH argument");
          exit 2
        end)
    Sys.argv;
  !path

let json_path () = flag_arg "--json"

let () =
  (* --obs-gate BASE: run only the telemetry-overhead pair (see
     bench_obs.ml) — the CI obs-overhead step, which has no use for the
     experiment tables or micro-benches. *)
  (match flag_arg "--obs-gate" with
  | Some base ->
      Bench_obs.run_gate ~base;
      exit 0
  | None -> ());
  let no_micro = Array.exists (fun a -> a = "--no-micro") Sys.argv in
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let obs = Array.exists (fun a -> a = "--obs") Sys.argv in
  let json = json_path () in
  (* --smoke: only the pinned kernel gate point plus the kernel micro
     records, for the CI ceiling check — seconds, not minutes. *)
  if Array.exists (fun a -> a = "--smoke") Sys.argv then begin
    let records = Bench_matching.run_smoke () @ Bench_kernels.run () in
    Bench_matching.print_table records;
    (match json with
    | None -> ()
    | Some path -> Bench_matching.emit_json records ~path);
    exit 0
  end;
  print_endline "Reproduction harness for:";
  print_endline
    "  Boufkhad, Mathieu, de Montgolfier, Perino, Viennot.\n\
    \  \"An Upload Bandwidth Threshold for Peer-to-Peer Video-on-Demand\n\
    \  Scalability\", IPDPS 2009.";
  if not quick then Experiments.run_all ()
  else print_endline "(--quick: skipping the E1-E9 experiment tables)";
  if not no_micro then micro_benchmarks ();
  print_newline ();
  (* Span recording around the matching bench distorts the ns/round
     numbers it reports, so --obs is for attribution runs, not for
     refreshing the committed baseline. *)
  let recorder =
    if obs then begin
      Obs.Registry.reset Obs.Registry.default;
      let r = Obs.Span.create_recorder () in
      Obs.Span.install r;
      Some r
    end
    else None
  in
  let records =
    Bench_matching.run () @ Bench_matching.run_swarms () @ Bench_kernels.run ()
    @ if json = None then [] else Bench_sim.run ()
  in
  (match recorder with
  | None -> ()
  | Some r ->
      Obs.Span.uninstall ();
      Obs.Report.print_summary (Obs.Report.of_recorder ~registry:Obs.Registry.default r);
      print_newline ());
  Bench_matching.print_table records;
  Bench_matching.print_scaling_sweep ();
  (match json with
  | None -> ()
  | Some path -> Bench_matching.emit_json records ~path);
  print_newline ();
  print_endline
    "All experiments completed. See EXPERIMENTS.md for the paper-vs-measured record."
