(* Telemetry-overhead gate: the same engine-driven point run twice —
   round sink off, then on (Timeseries rings + the default SLO pair) —
   emitted as two single-record BENCH files under the SAME record name
   so `bench/compare.exe BASE_off.json BASE_on.json` turns the existing
   regression gate into an overhead bound:

     - ns_per_round over the threshold  -> telemetry is too expensive;
     - matched_per_round drift          -> telemetry perturbed the run,
       which the observation-only round-sink contract forbids (both
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
   identical demand sequence.  Returns (ns total, served total). *)
let run_once ~telemetry =
  let sim =
    System.engine
      (System.homogeneous ~seed:5 ~m:256 ~n ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
         ~duration:15 ())
  in
  let tele =
    if telemetry then begin
      let t = Telemetry.create ~slos:(Telemetry.default_slos ()) () in
      Telemetry.attach t sim;
      Some t
    end
    else None
  in
  let wg = Prng.create ~seed:9 () in
  let gen = Generators.zipf_arrivals wg ~rate:400.0 ~s:0.9 in
  let b0 = Gc.allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  let reports = Engine.run sim ~rounds ~demands_for:gen in
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  let bytes = Gc.allocated_bytes () -. b0 in
  let served = List.fold_left (fun acc r -> acc + r.Engine.served) 0 reports in
  (match tele with
  | Some t when Telemetry.rounds t <> rounds ->
      Printf.eprintf "obs-gate: sink saw %d rounds, expected %d\n" (Telemetry.rounds t)
        rounds;
      exit 2
  | _ -> ());
  (ns, served, bytes)

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
    (* the sink is observation-only; a diverging run is a correctness
       bug, not an overhead question *)
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
