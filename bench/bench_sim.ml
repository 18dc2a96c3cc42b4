(* Simulate rounds at the sizes the north star names: n = 262144 and
   n = 1e6, the bare engine under uniform Poisson arrivals.

   One record per size for the CI regression gate (bench/compare.exe):

     sim/round   ns per round: the generator's idle-box draw, the
                 demand registrations and [Engine.step], timed with
                 [Obs.Clock] over [timed] rounds after [warm] untimed
                 ones.  Placement, [Engine.create] and the warm-up are
                 outside the timed region.
                 matched_per_round = viewer requests served per round.

   The system is simulate-64k's (perfbench/README.md) scaled up: u 2.0,
   d 4.0, c 2, k 4, m = n / 8, mu 1.5, T 15, and the arrival rate scaled
   with n (500 per round at n = 65536).  The engine is deterministic at
   a fixed seed, so matched_per_round is exact; only the ns column
   carries noise.  The timed rounds record no spans of their own; as
   many rounds again run after them under a private span recorder and
   give the per-layer split printed below the records.  Whatever
   recorder the caller installed (bench/main.exe --obs) is restored
   afterwards. *)

open Vod

let sizes = [ 262_144; 1_000_000 ]
let warm = 30

type split = { n : int; round_ms : float; layers : (string * float) list; rows : float }

let layer_names = [ "workload.gen"; "demand-admit"; "build"; "matching"; "account" ]

let run_size n =
  let timed = if n >= 1_000_000 then 4 else 8 in
  let sys =
    System.homogeneous ~seed:(0x5e + n) ~m:(n / 8) ~n ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5
      ~duration:15 ()
  in
  let engine = System.engine sys in
  let rate = 500.0 *. float_of_int n /. 65536.0 in
  let arrivals = Generators.uniform_arrivals (Prng.create ~seed:(n + 7) ()) ~rate in
  let round () =
    let time = Engine.now engine + 1 in
    let demands = Obs.Span.with_ ~name:"workload.gen" (fun () -> arrivals engine time) in
    List.iter
      (fun (box, video) -> ignore (Engine.try_demand engine ~box ~video : Engine.admit))
      demands;
    Engine.step engine
  in
  for _ = 1 to warm do
    ignore (round () : Engine.round_report)
  done;
  let served = ref 0 in
  let b0 = Gc.allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to timed do
    served := !served + (round ()).Engine.served
  done;
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  let bytes = Gc.allocated_bytes () -. b0 in
  let outer = Obs.Span.installed () in
  let recorder = Obs.Span.create_recorder () in
  Obs.Span.install recorder;
  let rows = ref 0 in
  let t1 = Obs.Clock.now_ns () in
  for _ = 1 to timed do
    rows := !rows + (round ()).Engine.active_requests
  done;
  let traced_ns = float_of_int (Obs.Clock.now_ns () - t1) in
  (match outer with Some r -> Obs.Span.install r | None -> Obs.Span.uninstall ());
  let ft = float_of_int timed in
  let span_ms name =
    List.fold_left
      (fun acc e ->
        if e.Obs.Span.name = name then acc + (e.Obs.Span.stop_ns - e.Obs.Span.start_ns)
        else acc)
      0 (Obs.Span.events recorder)
    |> fun total -> float_of_int total /. 1e6 /. ft
  in
  let record =
    {
      Bench_matching.name = "sim/round";
      n;
      rounds = timed;
      ns_per_round = ns /. ft;
      matched_per_round = float_of_int !served /. ft;
      alloc_per_round = bytes /. ft;
    }
  in
  let split =
    {
      n;
      round_ms = traced_ns /. ft /. 1e6;
      layers = List.map (fun name -> (name, span_ms name)) layer_names;
      rows = float_of_int !rows /. ft;
    }
  in
  (record, split)

let print_splits splits =
  let tbl =
    Table.create
      ~columns:
        (("n", Table.Right) :: ("round ms", Table.Right)
        :: List.map (fun name -> (name, Table.Right)) layer_names
        @ [ ("rows", Table.Right) ])
  in
  List.iter
    (fun s ->
      Table.add_row tbl
        ((string_of_int s.n :: Printf.sprintf "%.2f" s.round_ms
         :: List.map (fun (_, ms) -> Printf.sprintf "%.2f" ms) s.layers)
        @ [ Printf.sprintf "%.0f" s.rows ]))
    splits;
  Table.print ~title:"Simulate rounds by layer (ms/round over the traced rounds)" tbl

let run () =
  let results = List.map run_size sizes in
  print_splits (List.map snd results);
  List.map fst results
