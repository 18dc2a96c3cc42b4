(* Benchmark harness entry point.

   1. Runs the reproduction experiments E1-E20 (each regenerates one of
      the paper's claims as a printed table; see EXPERIMENTS.md).
   2. Runs the connection-matching benchmark (bench_matching.ml) and,
      with [--json PATH], writes its records as machine-readable JSON
      for the CI regression gate (bench/compare.exe).  The same record
      set carries the kernel micro-records (bench_kernels.ml) and, with
      [--json] only (a minute or two and ~0.5 GB), simulate rounds at
      n = 262144 and 1e6 (bench_sim.ml).  The serve loop is timed by
      perfbench/ (serve-steady, serve-storm), not here.

   Run with:            dune exec bench/main.exe
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
     experiment tables. *)
  (match flag_arg "--obs-gate" with
  | Some base ->
      Bench_obs.run_gate ~base;
      exit 0
  | None -> ());
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
  else print_endline "(--quick: skipping the E1-E20 experiment tables)";
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
