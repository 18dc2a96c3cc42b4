(* Connection-matching benchmark.

   Synthesises round sequences that mimic the engine's per-round
   instance delta — a small fraction of requests departs and is
   replaced by fresh arrivals each round, capacities drift slightly —
   and times two paths over the identical instance sequence:

     scratch      Bipartite.solve (Dinic CSR core) into a shared arena,
                  outcome arrays copied out
     csr          the bare Dinic CSR core over a shared arena, no
                  outcome materialisation — the path the engine runs

   Besides ns/round each record carries alloc/round, the
   {!allocated_bytes} delta per round of the timed region: once the
   arena has grown, a csr round allocates only the core's DFS closure
   (144 bytes per solve that runs augmenting phases, none for one that
   greedy saturates; the records read 147-165 bytes per round).  Emits both a human table and (via
   {!emit_json}) the machine-readable [BENCH_matching.json] record set
   that `bench/compare.exe` diffs against the committed baseline in
   CI. *)

open Vod

type record = {
  name : string;
  n : int;
  rounds : int;
  ns_per_round : float;
  matched_per_round : float;
  alloc_per_round : float; (* bytes *)
}

(* Bytes allocated so far, on both heaps: minor + major - promoted
   words.  [Gc.minor_words] includes the live minor heap, whereas
   [Gc.allocated_bytes] moves by the whole minor heap on the round a
   minor collection runs, so a delta of it reads how many collections
   fell inside the timed region, not what that region allocated. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* Best of [repeats] runs of [f], which returns (ns, work, bytes):
   scheduler hiccups only ever add time, so the minimum is the stable
   estimate the regression gate needs, and the allocation keeps its
   minimum too.  The work is the last run's (the runs agree). *)
let best_of ~repeats f =
  let best = ref infinity and work = ref 0 and bytes = ref infinity in
  for _ = 1 to repeats do
    let ns, w, b = f () in
    if ns < !best then best := ns;
    work := w;
    if b < !bytes then bytes := b
  done;
  (!best, !work, !bytes)

type scenario = { label : string; churn : float }

let scenarios = [ { label = "low-churn"; churn = 0.02 }; { label = "high-churn"; churn = 0.40 } ]
let sizes = [ 256; 1024; 4096; 16384 ]

(* One identity-stable synthetic round sequence: request l keeps its row
   unless churned, in which case it models a departure plus a fresh
   arrival. *)
let make_sequence ~seed ~n_left ~rounds ~churn =
  let g = Prng.create ~seed () in
  let n_right = max 1 (n_left / 4) in
  let degree = 8 in
  let fresh_row () = Array.init degree (fun _ -> Prng.int g n_right) in
  let right_cap = Array.init n_right (fun _ -> 2 + Prng.int g 7) in
  let adj = Array.init n_left (fun _ -> fresh_row ()) in
  let instances = ref [] in
  for _round = 1 to rounds do
    for l = 0 to n_left - 1 do
      if Prng.float g 1.0 < churn then adj.(l) <- fresh_row ()
    done;
    (* capacity drift: a couple of boxes gain or lose one upload slot *)
    for _ = 1 to max 1 (n_right / 128) do
      let r = Prng.int g n_right in
      right_cap.(r) <- max 1 (right_cap.(r) + (if Prng.bool g then 1 else -1))
    done;
    let fill l emit = Array.iter emit adj.(l) in
    instances := Bipartite.create ~n_left ~n_right ~right_cap ~fill :: !instances
  done;
  List.rev !instances

(* Every timed path reuses one arena per call, like the engine does;
   each timer returns (elapsed ns, total matched, allocated bytes). *)

let time_scratch seq ~arena =
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  List.iter
    (fun inst ->
      let o = Bipartite.solve ~arena inst in
      matched := !matched + o.Bipartite.matched)
    seq;
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  (ns, !matched, allocated_bytes () -. b0)

(* The bare CSR core: no outcome arrays, results stay in the arena.
   This is the ~0 bytes/round row. *)
let time_csr seq ~arena =
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  List.iter
    (fun inst -> matched := !matched + Dinic.solve_csr ~arena (Bipartite.csr inst))
    seq;
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  (ns, !matched, allocated_bytes () -. b0)

let run () =
  let records = ref [] in
  let arena = Arena.create () in
  List.iter
    (fun { label; churn } ->
      List.iter
        (fun n_left ->
          (* Small sizes need more rounds: the timed region must stay
             well above scheduler-jitter scale or the compare gate sees
             phantom regressions. *)
          let rounds =
            if n_left >= 16384 then 12 else if n_left >= 4096 then 32 else 96
          in
          let seq = make_sequence ~seed:(0xbe2c + n_left) ~n_left ~rounds ~churn in
          (* warm all paths once (allocator, code, arena growth) before
             timing *)
          ignore (time_scratch [ List.hd seq ] ~arena);
          ignore (time_csr [ List.hd seq ] ~arena);
          let scratch_ns, scratch_matched, scratch_b =
            best_of ~repeats:5 (fun () -> time_scratch seq ~arena)
          in
          let csr_ns, csr_matched, csr_b =
            best_of ~repeats:5 (fun () -> time_csr seq ~arena)
          in
          if scratch_matched <> csr_matched then
            failwith
              (Printf.sprintf
                 "bench_matching: paths disagree at n=%d %s (scratch %d, csr %d)" n_left
                 label scratch_matched csr_matched);
          let r = float_of_int rounds in
          let mk name ns matched bytes =
            {
              name;
              n = n_left;
              rounds;
              ns_per_round = ns /. r;
              matched_per_round = float_of_int matched /. r;
              alloc_per_round = bytes /. r;
            }
          in
          records :=
            mk (Printf.sprintf "matching/csr/%s" label) csr_ns csr_matched csr_b
            :: mk (Printf.sprintf "matching/scratch/%s" label) scratch_ns
                 scratch_matched scratch_b
            :: !records)
        sizes)
    scenarios;
  List.rev !records

(* The single pinned point of the CI kernel smoke: the bare CSR Dinic
   core at n=16384 low churn, checked against an absolute
   ns/round ceiling (compare.exe --ceiling) so a kernel regression
   fails fast without waiting for the full bench leg. *)
let run_smoke () =
  let arena = Arena.create () in
  let n_left = 16384 and rounds = 12 in
  let seq = make_sequence ~seed:(0xbe2c + n_left) ~n_left ~rounds ~churn:0.02 in
  ignore (time_csr [ List.hd seq ] ~arena);
  let ns, matched, bytes = best_of ~repeats:5 (fun () -> time_csr seq ~arena) in
  let r = float_of_int rounds in
  [
    {
      name = "matching/csr/low-churn";
      n = n_left;
      rounds;
      ns_per_round = ns /. r;
      matched_per_round = float_of_int matched /. r;
      alloc_per_round = bytes /. r;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Whole-instance solving at swarm scale                               *)
(* ------------------------------------------------------------------ *)

(* Swarm-structured instances: the catalog decomposes the fleet into
   independent swarms, so a round's bipartite instance is a disjoint
   union of blocks.  [block_lefts] requests share [block_rights] boxes;
   churn rewrites a row inside its own block.  This is the regime of
   the large-n acceptance points (n = 262144 and n = 1e6). *)
let block_lefts = 128
let block_rights = 32
let swarm_degree = 8
let swarm_churn = 0.05
let swarm_n_right n_left = (n_left + block_lefts - 1) / block_lefts * block_rights

let swarm_refill g rows l =
  let base = l / block_lefts * block_rights in
  for i = 0 to swarm_degree - 1 do
    rows.((l * swarm_degree) + i) <- base + Prng.int g block_rights
  done

type swarm_pass = { ns : float; matched : int; bytes : float }

(* One pass: build the instance once, then [rounds] churn steps, each a
   full row-major rebuild followed by a CSR Dinic solve.  The timed
   region covers rebuild + solve — the per-round cost the engine pays —
   but not the initial construction or the solver warm-up. *)
let run_swarm_pass ~seed ~n_left ~rounds ~arena =
  let g = Prng.create ~seed () in
  let n_right = swarm_n_right n_left in
  let right_cap = Array.init n_right (fun _ -> 2 + Prng.int g 7) in
  let rows = Array.make (n_left * swarm_degree) 0 in
  for l = 0 to n_left - 1 do
    swarm_refill g rows l
  done;
  let fill l emit =
    for i = 0 to swarm_degree - 1 do
      emit rows.((l * swarm_degree) + i)
    done
  in
  let inst = Bipartite.create ~n_left ~n_right ~right_cap ~fill in
  let solve () = Dinic.solve_csr ~arena (Bipartite.csr inst) in
  ignore (solve ());
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = Obs.Clock.now_ns () in
  for _round = 1 to rounds do
    for _ = 1 to max 1 (int_of_float (float_of_int n_left *. swarm_churn)) do
      swarm_refill g rows (Prng.int g n_left)
    done;
    Bipartite.rebuild inst ~n_left ~right_cap ~fill;
    matched := !matched + solve ()
  done;
  let ns = float_of_int (Obs.Clock.now_ns () - t0) in
  { ns; matched = !matched; bytes = allocated_bytes () -. b0 }

let scale_sizes = [ 262_144; 1_000_000 ]

let run_swarms () =
  let arena = Arena.create () in
  List.map
    (fun n_left ->
      let rounds = if n_left >= 1_000_000 then 3 else 6 in
      let reps = if n_left >= 1_000_000 then 2 else 3 in
      let seed = 0x5a2d + n_left in
      let p = ref (run_swarm_pass ~seed ~n_left ~rounds ~arena) in
      for _ = 2 to reps do
        let q = run_swarm_pass ~seed ~n_left ~rounds ~arena in
        if q.ns < !p.ns then p := q
      done;
      let p = !p in
      {
        name = "matching/csr/swarms";
        n = n_left;
        rounds;
        ns_per_round = p.ns /. float_of_int rounds;
        matched_per_round = float_of_int p.matched /. float_of_int rounds;
        alloc_per_round = p.bytes /. float_of_int rounds;
      })
    scale_sizes

(* Catalog-scaling sweep: the per-request admission cost must stay flat
   as n grows — Theorem 1's linear-in-n scalability — across six orders
   of magnitude.  Printed only; the small sizes are too jittery for the
   regression gate, which watches the large JSON points instead. *)
let sweep_sizes = [ 10; 100; 1000; 10_000; 100_000; 1_000_000 ]

let print_scaling_sweep () =
  let arena = Arena.create () in
  let tbl =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("rounds", Table.Right);
          ("ns/round", Table.Right);
          ("ns/round/n", Table.Right);
          ("matched/round", Table.Right);
        ]
  in
  List.iter
    (fun n_left ->
      let rounds =
        if n_left <= 100 then 64
        else if n_left <= 10_000 then 16
        else if n_left <= 100_000 then 8
        else 3
      in
      let p = run_swarm_pass ~seed:(0x51ee + n_left) ~n_left ~rounds ~arena in
      let per_round = p.ns /. float_of_int rounds in
      Table.add_row tbl
        [
          string_of_int n_left;
          string_of_int rounds;
          Printf.sprintf "%.0f" per_round;
          Printf.sprintf "%.2f" (per_round /. float_of_int n_left);
          Printf.sprintf "%.1f" (float_of_int p.matched /. float_of_int rounds);
        ])
    sweep_sizes;
  Table.print
    ~title:"Whole-instance matching: catalog scaling (admission cost per request, Theorem 1)"
    tbl

let print_table records =
  let tbl =
    Table.create
      ~columns:
        [
          ("benchmark", Table.Left);
          ("n", Table.Right);
          ("rounds", Table.Right);
          ("ns/round", Table.Right);
          ("matched/round", Table.Right);
          ("alloc B/round", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.name;
          string_of_int r.n;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" r.ns_per_round;
          Printf.sprintf "%.1f" r.matched_per_round;
          Printf.sprintf "%.0f" r.alloc_per_round;
        ])
    records;
  Table.print ~title:"Connection matching: Dinic outcome vs bare Dinic CSR core" tbl;
  (* headline: the price of the outcome copies over the bare core *)
  let find name n = List.find_opt (fun r -> r.name = name && r.n = n) records in
  match (find "matching/scratch/low-churn" 4096, find "matching/csr/low-churn" 4096) with
  | Some s, Some c when c.ns_per_round > 0.0 ->
      Printf.printf "low-churn n=4096 (scratch / csr): %.1fx\n"
        (s.ns_per_round /. c.ns_per_round)
  | _ -> ()

let emit_json records ~path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"vod-bench-matching/1\",\n  \"records\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"n\": %d, \"rounds\": %d, \"ns_per_round\": %.3f, \
            \"matched_per_round\": %.3f, \"alloc_per_round\": %.1f}%s\n"
           r.name r.n r.rounds r.ns_per_round r.matched_per_round r.alloc_per_round
           (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "matching bench records written to %s\n" path
