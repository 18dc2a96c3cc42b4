(* Tests for the observability subsystem (lib/obs): metrics registry,
   span recording, JSONL export/parse round-trip and trace validation. *)

open Vod_util
module Registry = Vod_obs.Registry
module Span = Vod_obs.Span
module Export = Vod_obs.Export
module Report = Vod_obs.Report

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* A histogram as [Export] sees it: its entry in the registry snapshot. *)
let hist_of reg name = List.assoc name (Registry.snapshot reg).Registry.s_histograms

let test_counter_basics () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a" in
  Registry.incr c;
  Registry.add c 4;
  checki "value" 5 (Registry.counter_value c);
  (* find-or-create: the same name yields the same cell *)
  Registry.incr (Registry.counter reg "a");
  checki "shared handle" 6 (Registry.counter_value c);
  (* separate namespaces *)
  let g = Registry.gauge reg "a" in
  Registry.set g 42;
  checki "counter unaffected by gauge" 6 (Registry.counter_value c);
  checki "gauge" 42 (Registry.gauge_value g)

let test_reset_keeps_handles () =
  let reg = Registry.create () in
  let c = Registry.counter reg "c" in
  let h = Registry.histogram reg "h" in
  Registry.add c 7;
  Registry.observe h 9;
  Registry.reset reg;
  checki "counter zeroed" 0 (Registry.counter_value c);
  checki "hist zeroed" 0 (hist_of reg "h").Registry.count;
  (* the old handle still records into the registry *)
  Registry.incr c;
  checki "handle live after reset" 1 (Registry.counter_value (Registry.counter reg "c"))

let test_bucket_of () =
  let bucket v =
    let reg = Registry.create () in
    Registry.observe (Registry.histogram reg "h") v;
    match (hist_of reg "h").Registry.buckets with
    | [ (e, 1) ] -> e
    | _ -> Alcotest.fail "one observation fills one bucket"
  in
  checki "0" 0 (bucket 0);
  checki "1" 0 (bucket 1);
  checki "2" 1 (bucket 2);
  checki "3" 1 (bucket 3);
  checki "4" 2 (bucket 4);
  checki "1023" 9 (bucket 1023);
  checki "1024" 10 (bucket 1024);
  (* max_int = 2^62 - 1 on 64-bit: top bit is 2^61 *)
  checki "max_int" 61 (bucket max_int)

let test_histogram_observe () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "h" in
  List.iter (Registry.observe h) [ 1; 2; 5; -3 ];
  let s = hist_of reg "h" in
  checki "count" 4 s.Registry.count;
  checki "sum (negatives clamp to 0)" 8 s.Registry.sum;
  Alcotest.check
    Alcotest.(list (pair int int))
    "sparse buckets" [ (0, 2); (1, 1); (2, 1) ] s.Registry.buckets

let test_snapshot_sorted () =
  let reg = Registry.create () in
  Registry.add (Registry.counter reg "z") 1;
  Registry.add (Registry.counter reg "a") 2;
  Registry.add (Registry.counter reg "m") 3;
  let s = Registry.snapshot reg in
  checkb "name-sorted" true
    (s.Registry.s_counters = [ ("a", 2); ("m", 3); ("z", 1) ])

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Run [f] with a fresh recorder installed; always restores the no-op
   sink so a failing test cannot leak recording into later ones. *)
let with_recorder ?capacity f =
  let r = Span.create_recorder ?capacity () in
  Span.install r;
  Fun.protect ~finally:Span.uninstall (fun () -> f r)

let test_span_nesting () =
  with_recorder (fun r ->
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ());
          Span.with_ ~name:"inner2" (fun () -> ()));
      let events = Span.events r in
      checki "three spans" 3 (List.length events);
      (* completion order: children close before their parent *)
      let names = List.map (fun e -> e.Span.name) events in
      checkb "order" true (names = [ "inner"; "inner2"; "outer" ]);
      let outer = List.nth events 2 in
      List.iter
        (fun e ->
          if e.Span.name <> "outer" then begin
            checki (e.Span.name ^ " parent") outer.Span.id e.Span.parent;
            checkb (e.Span.name ^ " contained") true
              (outer.Span.start_ns <= e.Span.start_ns
              && e.Span.stop_ns <= outer.Span.stop_ns)
          end)
        events)

let test_span_exception_closes () =
  with_recorder (fun r ->
      (try Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
      checki "span recorded despite raise" 1 (List.length (Span.events r));
      (* the frame stack is clean: the next span is a root again *)
      Span.with_ ~name:"after" (fun () -> ());
      let after = List.nth (Span.events r) 1 in
      checki "root parent" (-1) after.Span.parent)

let test_span_ring_eviction () =
  with_recorder ~capacity:4 (fun r ->
      for i = 1 to 10 do
        Span.with_ ~name:(string_of_int i) (fun () -> ())
      done;
      checki "surviving in ring" 4 (Span.recorded r);
      checki "dropped" 6 (Span.dropped r);
      let names = List.map (fun e -> e.Span.name) (Span.events r) in
      checkb "oldest evicted first" true (names = [ "7"; "8"; "9"; "10" ]))

let test_noop_sink () =
  Span.uninstall ();
  checkb "nothing installed" true (Span.installed () = None);
  (* must be a plain call-through, including attrs *)
  checki "value passes through" 7
    (Span.with_ ~name:"x" (fun () ->
         Span.set_attr "k" "v";
         7))

(* ------------------------------------------------------------------ *)
(* Golden JSONL round-trip                                             *)
(* ------------------------------------------------------------------ *)

let golden_lines =
  [
    "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":2,\"dropped_spans\":0}";
    "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"round\",\"start_ns\":100,\"stop_ns\":200,\"attrs\":{}}";
    "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"matching\",\"start_ns\":110,\"stop_ns\":190,\"attrs\":{\"served\":\"17\"}}";
    "{\"type\":\"counter\",\"name\":\"engine.rounds\",\"value\":1}";
    "{\"type\":\"gauge\",\"name\":\"engine.active_requests\",\"value\":12}";
    "{\"type\":\"hist\",\"name\":\"hk.path_length\",\"count\":3,\"sum\":8,\"buckets\":[[0,1],[1,1],[2,1]]}";
  ]

let golden_registry () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg "engine.rounds");
  Registry.set (Registry.gauge reg "engine.active_requests") 12;
  let h = Registry.histogram reg "hk.path_length" in
  List.iter (Registry.observe h) [ 1; 2; 5 ];
  reg

let test_export_golden () =
  let r = Span.create_recorder () in
  let root = Span.emit r ~name:"round" ~start_ns:100 ~stop_ns:200 () in
  let _ =
    Span.emit r ~parent:root
      ~attrs:[ ("served", "17") ]
      ~name:"matching" ~start_ns:110 ~stop_ns:190 ()
  in
  let jsonl = Export.to_jsonl ~registry:(golden_registry ()) r in
  checks "exact JSONL" (String.concat "\n" golden_lines ^ "\n") jsonl

let test_roundtrip_golden () =
  let jsonl = String.concat "\n" golden_lines ^ "\n" in
  match Report.of_string jsonl with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok trace -> (
      (match Report.validate trace with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate: %s" e);
      checki "spans" 2 (List.length trace.Report.spans);
      checki "dropped" 0 trace.Report.dropped;
      checkb "counters" true (trace.Report.counters = [ ("engine.rounds", 1) ]);
      checkb "gauges" true (trace.Report.gauges = [ ("engine.active_requests", 12) ]);
      (match trace.Report.hists with
      | [ ("hk.path_length", h) ] ->
          checki "hist count" 3 h.Report.count;
          checki "hist sum" 8 h.Report.sum;
          checkb "hist buckets" true (h.Report.buckets = [ (0, 1); (1, 1); (2, 1) ])
      | _ -> Alcotest.fail "expected one histogram");
      match trace.Report.spans with
      | [ root; child ] ->
          checks "root name" "round" root.Span.name;
          checki "child parent" root.Span.id child.Span.parent;
          checkb "child attrs" true (child.Span.attrs = [ ("served", "17") ])
      | _ -> Alcotest.fail "expected two spans")

let test_validate_rejects_bad_traces () =
  let reject ~why lines =
    match Report.of_string (String.concat "\n" lines ^ "\n") with
    | Error _ -> ()
    | Ok trace -> (
        match Report.validate trace with
        | Error _ -> ()
        | Ok () -> Alcotest.failf "validate accepted a trace with %s" why)
  in
  reject ~why:"duplicate ids"
    [
      "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":2,\"dropped\":0}";
      "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"a\",\"start_ns\":0,\"stop_ns\":5,\"attrs\":{}}";
      "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"b\",\"start_ns\":0,\"stop_ns\":5,\"attrs\":{}}";
    ];
  reject ~why:"stop < start"
    [
      "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":1,\"dropped\":0}";
      "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"a\",\"start_ns\":9,\"stop_ns\":5,\"attrs\":{}}";
    ];
  reject ~why:"a child escaping its parent's interval"
    [
      "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":2,\"dropped\":0}";
      "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"a\",\"start_ns\":0,\"stop_ns\":5,\"attrs\":{}}";
      "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"b\",\"start_ns\":3,\"stop_ns\":9,\"attrs\":{}}";
    ];
  reject ~why:"a missing parent in a lossless trace"
    [
      "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":1,\"dropped\":0}";
      "{\"type\":\"span\",\"id\":5,\"parent\":3,\"name\":\"a\",\"start_ns\":0,\"stop_ns\":5,\"attrs\":{}}";
    ];
  reject ~why:"histogram buckets not summing to count"
    [
      "{\"type\":\"meta\",\"schema\":\"vod-obs/1\",\"events\":0,\"dropped\":0}";
      "{\"type\":\"hist\",\"name\":\"h\",\"count\":5,\"sum\":9,\"buckets\":[[0,1],[1,1]]}";
    ]

let test_summarise_phases () =
  let r = Span.create_recorder () in
  (* two rounds of 100ns, each with phases covering 90ns *)
  List.iter
    (fun base ->
      let round = Span.emit r ~name:"round" ~start_ns:base ~stop_ns:(base + 100) () in
      let m =
        Span.emit r ~parent:round ~name:"matching" ~start_ns:base ~stop_ns:(base + 70) ()
      in
      let _ =
        Span.emit r ~parent:m ~name:"repair" ~start_ns:base ~stop_ns:(base + 30) ()
      in
      ignore
        (Span.emit r ~parent:round ~name:"build" ~start_ns:(base + 70)
           ~stop_ns:(base + 90) ()))
    [ 0; 1000 ];
  let summary = Report.summarise (Report.of_recorder r) in
  checki "rounds" 2 summary.Report.rounds;
  checkf "round total" 200.0 summary.Report.round_total_ns;
  (* direct children cover (70 + 20) * 2 = 180 of 200 ns *)
  checkf "coverage" 0.9 summary.Report.top_level_coverage;
  let row name =
    List.find (fun (row : Report.phase_row) -> row.Report.name = name)
      summary.Report.rows
  in
  checki "matching depth" 1 (row "matching").Report.depth;
  checki "repair depth" 2 (row "repair").Report.depth;
  checkf "matching total" 140.0 (row "matching").Report.total_ns;
  checkf "repair share" 0.3 (row "repair").Report.share

(* A driver loop's spans between rounds (the chaos and serve loops'
   [faults] and [repair]) are rows of their own after the round's,
   apart from a solver phase of the same name inside the round. *)
let test_summarise_outside_rounds () =
  let r = Span.create_recorder () in
  List.iter
    (fun base ->
      ignore (Span.emit r ~name:"faults" ~start_ns:base ~stop_ns:(base + 5) ());
      ignore (Span.emit r ~name:"repair" ~start_ns:(base + 5) ~stop_ns:(base + 25) ());
      let round =
        Span.emit r ~name:"round" ~start_ns:(base + 30) ~stop_ns:(base + 130) ()
      in
      ignore
        (Span.emit r ~parent:round ~name:"repair" ~start_ns:(base + 30)
           ~stop_ns:(base + 40) ()))
    [ 0; 1000 ];
  let summary = Report.summarise (Report.of_recorder r) in
  checkf "round total" 200.0 summary.Report.round_total_ns;
  checkf "coverage counts the round's children only" 0.1
    summary.Report.top_level_coverage;
  let rows =
    List.map
      (fun (row : Report.phase_row) ->
        (row.Report.name, row.Report.outside, row.Report.depth, row.Report.total_ns))
      summary.Report.rows
  in
  checkb "round rows, then the outside rows by total" true
    (rows
    = [
        ("round", false, 0, 200.0);
        ("repair", false, 1, 20.0);
        ("repair", true, 0, 40.0);
        ("faults", true, 0, 10.0);
      ])

(* ------------------------------------------------------------------ *)
(* SLO burn rates                                                      *)
(* ------------------------------------------------------------------ *)

module Slo = Vod_obs.Slo

let test_slo_states () =
  let sp = Slo.spec ~fast:2 ~slow:4 ~name:"rej" ~target:0.4 () in
  let ev = Slo.create sp in
  checks "initial" "ok" (Slo.state_name (Slo.state ev));
  checks "no burning window" "none" (Slo.burning_window ev);
  (* two good warm-up rounds (so the slow window outgrows the fast one),
     two bad rounds, then recovery: Ok -> Warning (fast detects) ->
     Breach (slow confirms) -> Warning (slow tail) -> Ok *)
  let expect =
    [
      ((0, 10), "ok", "none");
      ((0, 10), "ok", "none");
      ((10, 10), "warning", "fast");
      ((10, 10), "breach", "both");
      ((0, 10), "breach", "both");
      ((0, 10), "warning", "slow");
      ((0, 10), "ok", "none");
    ]
  in
  List.iteri
    (fun i ((bad, total), state, window) ->
      Slo.observe ev ~bad ~total;
      checks (Printf.sprintf "state after round %d" (i + 1)) state
        (Slo.state_name (Slo.state ev));
      checks (Printf.sprintf "window after round %d" (i + 1)) window
        (Slo.burning_window ev))
    expect;
  let su = Slo.summary ev in
  checki "warn rounds" 2 su.Slo.su_warn_rounds;
  checki "breach rounds" 2 su.Slo.su_breach_rounds;
  (* peak fast burn: [10;10]/20 = 1.0 bad fraction over target 0.4 *)
  checkf "max fast burn" (1.0 /. 0.4) su.Slo.su_max_fast_burn;
  checkf "max slow burn" (0.5 /. 0.4) su.Slo.su_max_slow_burn;
  checks "summary json"
    "{\"name\":\"rej\",\"state\":\"ok\",\"warn_rounds\":2,\"breach_rounds\":2,\"max_fast_burn\":2.5000,\"max_slow_burn\":1.2500}"
    (Slo.summary_json su);
  checks "verdict json"
    "{\"type\":\"slo\",\"t\":7,\"name\":\"rej\",\"state\":\"ok\",\"window\":\"none\",\"fast_burn\":0.0000,\"slow_burn\":0.6250}"
    (Slo.verdict_json ev ~round:7)

let test_slo_clamps_and_empty () =
  let ev = Slo.create (Slo.spec ~fast:2 ~slow:3 ~name:"s" ~target:0.5 ()) in
  checkf "burn of empty window" 0.0 (Slo.burn ev `Fast);
  (* negative counts clamp to 0, bad clamps to total *)
  Slo.observe ev ~bad:(-4) ~total:(-2);
  checkf "all-zero round contributes nothing" 0.0 (Slo.burn ev `Fast);
  Slo.observe ev ~bad:9 ~total:4;
  checkf "bad clamped to total" (1.0 /. 0.5) (Slo.burn ev `Fast);
  Alcotest.check_raises "bad target"
    (Invalid_argument "Slo.spec: target outside (0,1]") (fun () ->
      ignore (Slo.spec ~name:"t" ~target:1.5 ()));
  Alcotest.check_raises "fast >= slow"
    (Invalid_argument "Slo.spec: fast window must be smaller than slow") (fun () ->
      ignore (Slo.spec ~fast:100 ~slow:100 ~name:"t" ~target:0.1 ()))

(* ------------------------------------------------------------------ *)
(* Flamegraph folding                                                  *)
(* ------------------------------------------------------------------ *)

module Flame = Vod_obs.Flame

let test_flame_fold () =
  let r = Span.create_recorder () in
  let root = Span.emit r ~name:"round" ~start_ns:0 ~stop_ns:100 () in
  let m = Span.emit r ~parent:root ~name:"matching" ~start_ns:10 ~stop_ns:40 () in
  let _ = Span.emit r ~parent:m ~name:"bfs" ~start_ns:15 ~stop_ns:25 () in
  let _ = Span.emit r ~parent:root ~name:"account" ~start_ns:50 ~stop_ns:70 () in
  (* a span whose parent never made it into the ring roots itself *)
  let _ = Span.emit r ~parent:999 ~name:"orphan" ~start_ns:0 ~stop_ns:7 () in
  checks "collapsed stacks"
    "orphan 7\nround 50\nround;account 20\nround;matching 20\nround;matching;bfs 10\n"
    (Flame.folded (Span.events r))

let test_flame_self_clamped () =
  (* children overlapping beyond the parent's duration clamp self at 0 *)
  let r = Span.create_recorder () in
  let root = Span.emit r ~name:"p" ~start_ns:0 ~stop_ns:10 () in
  let _ = Span.emit r ~parent:root ~name:"a" ~start_ns:0 ~stop_ns:8 () in
  let _ = Span.emit r ~parent:root ~name:"b" ~start_ns:1 ~stop_ns:9 () in
  checkb "self clamped at zero" true (List.mem ("p", 0) (Flame.fold (Span.events r)))

(* ------------------------------------------------------------------ *)
(* Dashboard primitives                                                *)
(* ------------------------------------------------------------------ *)

module Dash = Vod_obs.Dash

let test_sparkline () =
  checks "empty" "" (Dash.sparkline [||]);
  checks "flat is all-low" "\xe2\x96\x81\xe2\x96\x81\xe2\x96\x81"
    (Dash.sparkline [| 5; 5; 5 |]);
  checks "min and max hit the ramp ends" "\xe2\x96\x81\xe2\x96\x88"
    (Dash.sparkline [| 0; 7 |]);
  checks "full ramp"
    "\xe2\x96\x81\xe2\x96\x82\xe2\x96\x83\xe2\x96\x84\xe2\x96\x85\xe2\x96\x86\xe2\x96\x87\xe2\x96\x88"
    (Dash.sparkline [| 0; 1; 2; 3; 4; 5; 6; 7 |])

(* ------------------------------------------------------------------ *)
(* The per-round observer                                              *)
(* ------------------------------------------------------------------ *)

module Telemetry = Vod_sim.Telemetry

(* A small engine run, one round at a time; [observe] sees each report
   right after [Engine.step], as every SLO loop feeds the observer. *)
let observed_run ~seed ~n ~u ~rate ~rounds ~specs ~observe =
  let fleet = Vod_model.Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let catalog = Vod_model.Catalog.create ~m:(n / 2) ~c:2 in
  let alloc =
    Vod_alloc.Schemes.random_permutation (Prng.create ~seed ()) ~fleet ~catalog ~k:4
  in
  let params = Vod_model.Params.make ~n ~c:2 ~mu:1.5 ~duration:10 in
  let sim =
    Vod_sim.Engine.create ~params ~fleet ~alloc ~policy:Vod_sim.Engine.Continue ()
  in
  let slos = Telemetry.create sim specs in
  let gen =
    Vod_workload.Generators.zipf_arrivals (Prng.create ~seed:(seed + 1) ()) ~rate ~s:0.9
  in
  let reports =
    List.init rounds (fun _ ->
        let report = List.hd (Vod_sim.Engine.run sim ~rounds:1 ~demands_for:gen) in
        observe slos report;
        report)
  in
  (sim, slos, reports)

let default_pair =
  [
    ("rejection", 0.05, Telemetry.Counts Telemetry.rejection);
    ("startup", 0.05, Telemetry.Startup_over 3.0);
  ]

let test_telemetry_attach () =
  let run observe =
    observed_run ~seed:3 ~n:32 ~u:2.0 ~rate:2.0 ~rounds:50 ~specs:default_pair ~observe
  in
  let _, slos, observed = run Telemetry.observe in
  let _, _, unobserved = run (fun _ _ -> ()) in
  checkb "observing never perturbs the run" true (observed = unobserved);
  checki "slo evaluators run" 2 (List.length (Telemetry.evaluators slos));
  List.iter
    (fun ev -> checki "every round observed" 50 (Slo.rounds ev))
    (Telemetry.evaluators slos)

(* Byte-pins of [vodctl top]'s non-tty output (the final frame only):
   simulate mode with its default SLO panel, and chaos mode on a
   helper-churn scenario with its KPI SLOs and repair footer.
   Regenerate with
     dune exec bin/vodctl.exe -- top -n 512 --rounds 60 > test/top_simulate_golden.txt
     dune exec bin/vodctl.exe -- top examples/battery/helpers_churn.scn \
       > test/top_helpers_churn_golden.txt *)
let test_top_frames () =
  List.iter
    (fun (args, golden) ->
      let out = Filename.temp_file "vodctl_top" ".txt" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/vodctl.exe top %s >%s" args (Filename.quote out))
      in
      let frame = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      checki (args ^ ": exit 0") 0 code;
      checks (args ^ ": frame matches " ^ golden)
        (In_channel.with_open_bin golden In_channel.input_all)
        frame)
    [
      ("-n 512 --rounds 60", "top_simulate_golden.txt");
      ("../examples/battery/helpers_churn.scn", "top_helpers_churn_golden.txt");
    ]

(* ------------------------------------------------------------------ *)
(* The shared JSON reader and the bench gate built on it               *)
(* ------------------------------------------------------------------ *)

let test_json_reader_union () =
  (* literals (the bench gate's copy read them) and \u escapes (the
     trace reader's copy read them) in one document *)
  match
    Vod_json.parse
      {|{"t": true, "f": false, "z": null, "s": "\u0041\n", "a": [1, -2.5e1]}|}
  with
  | Vod_json.Obj
      [
        ("t", Bool true);
        ("f", Bool false);
        ("z", Null);
        ("s", Str "A\n");
        ("a", Arr [ Num 1.0; Num -25.0 ]);
      ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse"

(* bench/compare.exe on the paths [base] and [cur]: (exit status, stderr). *)
let compare_paths ~base cur =
  let err = Filename.temp_file "bench" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bench/compare.exe %s %s >/dev/null 2>%s" (Filename.quote base)
         (Filename.quote cur) (Filename.quote err))
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

(* bench/compare.exe on [base] and a [current] holding [text]. *)
let compare_exe ~base text =
  let cur = Filename.temp_file "bench" ".json" in
  Out_channel.with_open_bin cur (fun oc -> Out_channel.output_string oc text);
  let result = compare_paths ~base cur in
  Sys.remove cur;
  result

let test_compare_rejects_malformed () =
  let doc =
    {|{"schema": "vod-bench-matching/1", "records": [{"name": "m/x", "n": 16,
        "ns_per_round": 5.0, "matched_per_round": 3.0}]}|}
  in
  let base = Filename.temp_file "bench" ".json" in
  Out_channel.with_open_bin base (fun oc -> Out_channel.output_string oc doc);
  Alcotest.(check int) "well-formed input passes" 0 (fst (compare_exe ~base doc));
  let bad =
    List.init (String.length doc - 1) (String.sub doc 0)
    @ [
        String.make 100_000 '[';
        {|{"schema": "vod-bench-matching/1", "records": [{"name": "\q"}]}|};
        {|{"schema": "vod-bench-matching/1", "records": [{"name": 1, "n": "16"}]}|};
        {|{"schema": "vod-bench-matching/1", "records": {}}|};
        {|{"schema": "other/1", "records": []}|};
        doc ^ " trailing";
        "\000\255 not json";
      ]
  in
  List.iter
    (fun text ->
      let code, stderr = compare_exe ~base text in
      let what = Printf.sprintf "%S" (String.sub text 0 (min 40 (String.length text))) in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      Alcotest.(check bool)
        (what ^ ": one compare: message, no exception")
        true
        (String.starts_with ~prefix:"compare: " stderr
        && List.length (String.split_on_char '\n' (String.trim stderr)) = 1))
    bad;
  (* an unreadable path (a directory) is named in the message *)
  let dir = Filename.get_temp_dir_name () in
  let code, stderr = compare_paths ~base dir in
  Alcotest.(check int) "directory: exit 2" 2 code;
  Alcotest.(check bool)
    "directory: one compare: message naming it" true
    (String.starts_with ~prefix:("compare: " ^ dir ^ ": ") stderr
    && List.length (String.split_on_char '\n' (String.trim stderr)) = 1);
  Sys.remove base

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  [
    (* absorbing one registry's histogram into another's gives the
       histogram of both observation lists: count, sum and every bucket *)
    Test.make ~name:"histogram merge preserves count and sum" ~count:200
      (pair (list (int_bound 100_000)) (list (int_bound 100_000)))
      (fun (xs, ys) ->
        let fill vs =
          let reg = Registry.create () in
          List.iter (Registry.observe (Registry.histogram reg "h")) vs;
          reg
        in
        let a = fill xs in
        Registry.absorb ~into:a (fill ys);
        hist_of a "h" = hist_of (fill (xs @ ys)) "h");
    (* The observer's one startup cursor reads each realised delay
       exactly once: its per-round pairs sum to a recount of the whole
       startup vector, stalls (u < 1) included. *)
    Test.make ~name:"startup cursor sums to a recount of the startup delays" ~count:60
      (quad (int_bound 10_000) (oneofl [ 0.75; 1.25; 2.0 ]) (int_range 1 40)
         (oneofl [ 0.0; 1.0; 2.0; 3.5 ]))
      (fun (seed, u, rounds, limit) ->
        let bad = ref 0 and total = ref 0 in
        let sim, _, _ =
          observed_run ~seed ~n:24 ~u ~rate:3.0 ~rounds
            ~specs:[ ("startup", 1.0, Telemetry.Startup_over limit) ]
            ~observe:(fun slos report ->
              Telemetry.observe slos report;
              List.iter
                (fun (b, t) ->
                  bad := !bad + b;
                  total := !total + t)
                (Telemetry.last_round slos))
        in
        let delays = Vod_sim.Engine.startup_delays sim in
        !total = Array.length delays
        && !bad
           = Array.fold_left
               (fun acc d -> if float_of_int d > limit then acc + 1 else acc)
               0 delays);
    (* The escape every JSONL stream shares: quotes, backslashes,
       control bytes and high bytes must all survive the parser. *)
    Test.make ~name:"span name and attribute bytes survive export and parse" ~count:500
      (string_gen Gen.char)
      (fun str ->
        let r = Span.create_recorder () in
        ignore
          (Span.emit r ~attrs:[ (str, str) ] ~name:str ~start_ns:1 ~stop_ns:2 () : int);
        match Report.of_string (Export.to_jsonl r) with
        | Error msg -> Test.fail_report msg
        | Ok trace -> (
            match trace.Report.spans with
            | [ e ] -> e.Span.name = str && e.Span.attrs = [ (str, str) ]
            | _ -> Test.fail_report "expected one span"));
    Test.make ~name:"random span trees validate" ~count:100
      (int_range 0 1_000_000)
      (fun seed ->
        let g = Prng.create ~seed () in
        let total = ref 0 in
        let r = Span.create_recorder () in
        Span.install r;
        Fun.protect ~finally:Span.uninstall (fun () ->
            let rec grow depth =
              Span.with_ ~name:(Printf.sprintf "d%d" depth) (fun () ->
                  incr total;
                  if depth < 4 then
                    for _ = 1 to Prng.int g 3 do
                      grow (depth + 1)
                    done)
            in
            for _ = 1 to 1 + Prng.int g 4 do
              grow 0
            done);
        let trace = Report.of_recorder r in
        List.length trace.Report.spans = !total
        && Result.is_ok (Report.validate trace));
  ]

let test_absorb () =
  let a = Registry.create () and b = Registry.create () in
  Registry.add (Registry.counter a "c") 3;
  Registry.add (Registry.counter b "c") 4;
  Registry.add (Registry.counter b "only_b") 9;
  Registry.set (Registry.gauge a "g") 5;
  Registry.set (Registry.gauge b "g") 2;
  Registry.observe (Registry.histogram a "h") 10;
  Registry.observe (Registry.histogram b "h") 100;
  Registry.absorb ~into:a b;
  checki "counters add" 7 (Registry.counter_value (Registry.counter a "c"));
  checki "missing counters created" 9
    (Registry.counter_value (Registry.counter a "only_b"));
  checki "gauges keep the max" 5 (Registry.gauge_value (Registry.gauge a "g"));
  checki "histograms merge count" 2 (hist_of a "h").Registry.count;
  checki "histograms merge sum" 110 (hist_of a "h").Registry.sum;
  (* the source registry is left untouched *)
  checki "source counter intact" 4 (Registry.counter_value (Registry.counter b "c"))

(* ------------------------------------------------------------------ *)
(* Par (the parallel sweep runner's substrate)                         *)
(* ------------------------------------------------------------------ *)

let test_par_map () =
  let r = Vod_par.Par.map ~jobs:4 ~f:(fun i -> i * i) 17 in
  checkb "results by index" true (r = Array.init 17 (fun i -> i * i));
  checkb "empty" true (Vod_par.Par.map ~jobs:2 ~f:(fun i -> i) 0 = [||]);
  (* job count never changes results *)
  let f i = (i * 7919) mod 131 in
  checkb "jobs-invariant" true
    (Vod_par.Par.map ~jobs:1 ~f 50 = Vod_par.Par.map ~jobs:8 ~f 50);
  checkb "backend named" true
    (List.mem Vod_par.Par.backend [ "domains"; "sequential" ]);
  checkb "default jobs positive" true (Vod_par.Par.default_jobs () >= 1)

let test_par_map_failure () =
  Alcotest.check_raises "first failure re-raised" (Failure "task 3") (fun () ->
      ignore
        (Vod_par.Par.map ~jobs:2
           ~f:(fun i -> if i = 3 then failwith "task 3" else i)
           8));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Par.map: negative task count") (fun () ->
      ignore (Vod_par.Par.map ~f:(fun i -> i) (-1)));
  Alcotest.check_raises "bad jobs" (Invalid_argument "Par.map: jobs < 1") (fun () ->
      ignore (Vod_par.Par.map ~jobs:0 ~f:(fun i -> i) 4))

(* Registries merged after a parallel fan-out see every task exactly
   once — the vodctl sweep pattern. *)
let test_par_absorb_pattern () =
  let regs =
    Vod_par.Par.map ~jobs:3
      ~f:(fun i ->
        let reg = Registry.create () in
        Registry.add (Registry.counter reg "work") i;
        Registry.set (Registry.gauge reg "peak") i;
        reg)
      10
  in
  let merged = Registry.create () in
  Array.iter (fun r -> Registry.absorb ~into:merged r) regs;
  checki "counters sum over tasks" 45
    (Registry.counter_value (Registry.counter merged "work"));
  checki "gauge keeps fleet max" 9 (Registry.gauge_value (Registry.gauge merged "peak"))

let suites =
  [
    ( "obs.registry",
      [
        Alcotest.test_case "counter and gauge" `Quick test_counter_basics;
        Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        Alcotest.test_case "absorb merges registries" `Quick test_absorb;
        Alcotest.test_case "bucket_of" `Quick test_bucket_of;
        Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
        Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
      ] );
    ( "obs.streaming",
      [
        Alcotest.test_case "slo state machine" `Quick test_slo_states;
        Alcotest.test_case "slo clamps and guards" `Quick test_slo_clamps_and_empty;
        Alcotest.test_case "flame fold" `Quick test_flame_fold;
        Alcotest.test_case "flame self clamped" `Quick test_flame_self_clamped;
        Alcotest.test_case "sparkline" `Quick test_sparkline;
        Alcotest.test_case "telemetry attach" `Quick test_telemetry_attach;
        Alcotest.test_case "vodctl top frames" `Quick test_top_frames;
      ] );
    ( "obs.span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "exception closes span" `Quick test_span_exception_closes;
        Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction;
        Alcotest.test_case "no-op sink" `Quick test_noop_sink;
      ] );
    ( "obs.jsonl",
      [
        Alcotest.test_case "export golden" `Quick test_export_golden;
        Alcotest.test_case "round-trip golden" `Quick test_roundtrip_golden;
        Alcotest.test_case "validate rejects bad traces" `Quick
          test_validate_rejects_bad_traces;
        Alcotest.test_case "summarise phases" `Quick test_summarise_phases;
        Alcotest.test_case "summarise outside rounds" `Quick
          test_summarise_outside_rounds;
        Alcotest.test_case "json reader reads literals and escapes" `Quick
          test_json_reader_union;
        Alcotest.test_case "bench compare rejects malformed json" `Quick
          test_compare_rejects_malformed;
      ] );
    ( "obs.par",
      [
        Alcotest.test_case "map" `Quick test_par_map;
        Alcotest.test_case "failure propagation" `Quick test_par_map_failure;
        Alcotest.test_case "absorb after fan-out" `Quick test_par_absorb_pattern;
      ] );
    ("obs.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
