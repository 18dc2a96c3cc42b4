(* Telemetry-overhead gate: the same engine-driven point run twice —
   round observer off, then on (the default rejection/startup SLO pair
   through the feed chaos and serve run) — emitted as two
   single-record BENCH files under the SAME record name so
   `bench/compare.exe BASE_off.json BASE_on.json` turns the existing
   regression gate into an overhead bound:

     - ns_per_round over the threshold  -> telemetry is too expensive;
     - matched_per_round drift          -> telemetry perturbed the run,
       which the observation-only observer contract forbids (both
       variants share one seed, so served counts must be identical).

   The point matches the matching bench's largest size (n = 16384) so
   the bound is taken where per-round work is most expensive relative
   to the fixed per-round telemetry cost's worst case.  Run via
   `dune exec bench/main.exe -- --obs-gate BASE` (skips everything
   else) — the CI obs-overhead step. *)

open Vod

let n = 16384
let rounds = 40
let reps = 3 (* best-of, same discipline as the matching bench *)

(* One run; both variants share the workload seed so they process the
   identical demand sequence through the same loop, the one chaos and
   serve run: demands, [Engine.step], then (on) the round observer.
   Returns (ns total, served total, bytes allocated). *)
let run_once ~telemetry =
  let sim =
    System.engine
      (System.homogeneous ~seed:5 ~m:256 ~n ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
         ~duration:15 ())
  in
  let slos =
    Telemetry.create sim
      [
        ("rejection", 0.05, Telemetry.Counts Telemetry.rejection);
        ("startup", 0.05, Telemetry.Startup_over 3.0);
      ]
  in
  let wg = Prng.create ~seed:9 () in
  let gen = Generators.zipf_arrivals wg ~rate:400.0 ~s:0.9 in
  let served = ref 0 in
  let b0 = Bench_matching.allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for time = 1 to rounds do
    List.iter
      (fun (box, video) -> ignore (Engine.try_demand sim ~box ~video : Engine.admit))
      (gen sim time);
    let report = Engine.step sim in
    if telemetry then Telemetry.observe slos report;
    served := !served + report.Engine.served
  done;
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  let bytes = Bench_matching.allocated_bytes () -. b0 in
  (ns, !served, bytes)

let record ~telemetry =
  let best = ref infinity and served = ref (-1) and bytes = ref 0.0 in
  for _ = 1 to reps do
    let ns, s, b = run_once ~telemetry in
    if !served >= 0 && s <> !served then begin
      Printf.eprintf "obs-gate: served total changed between reps (%d vs %d)\n" !served s;
      exit 2
    end;
    served := s;
    if ns < !best then begin
      best := ns;
      bytes := b
    end
  done;
  ( {
      Bench_matching.name = "engine/telemetry-gate";
      n;
      rounds;
      ns_per_round = !best /. float_of_int rounds;
      matched_per_round = float_of_int !served /. float_of_int rounds;
      alloc_per_round = !bytes /. float_of_int rounds;
    },
    !served )

let run_gate ~base =
  Printf.printf "=== telemetry-overhead gate: n=%d, %d rounds, best of %d ===\n%!" n
    rounds reps;
  let off, served_off = record ~telemetry:false in
  let on, served_on = record ~telemetry:true in
  if served_off <> served_on then begin
    (* the observer is observation-only; a diverging run is a
       correctness bug, not an overhead question *)
    Printf.eprintf "obs-gate: telemetry perturbed the run (served %d vs %d)\n" served_off
      served_on;
    exit 2
  end;
  let overhead =
    if off.Bench_matching.ns_per_round > 0.0 then
      (on.Bench_matching.ns_per_round -. off.Bench_matching.ns_per_round)
      /. off.Bench_matching.ns_per_round *. 100.0
    else 0.0
  in
  Printf.printf "  off: %10.0f ns/round   (served %d)\n" off.Bench_matching.ns_per_round
    served_off;
  Printf.printf "  on:  %10.0f ns/round   (served %d)\n" on.Bench_matching.ns_per_round
    served_on;
  Printf.printf "  telemetry overhead: %+.1f%%\n" overhead;
  Bench_matching.emit_json [ off ] ~path:(base ^ "_off.json");
  Bench_matching.emit_json [ on ] ~path:(base ^ "_on.json");
  Printf.printf "  wrote %s_off.json / %s_on.json (diff with bench/compare.exe)\n" base
    base
