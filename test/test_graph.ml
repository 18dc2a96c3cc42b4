(* Tests for the vod_graph substrate (the CSR builder, bipartite
   matching, Hall certificates) and for the independent solvers the
   oracle panel checks it against (flow networks, network max flows,
   slot Hopcroft-Karp), which live in vod_check. *)

open Vod_util
open Vod_graph
module Flow_network = Vod_check.Flow_network
module Dinic_flow = Vod_check.Dinic_flow
module Push_relabel = Vod_check.Push_relabel
module Hopcroft_karp = Vod_check.Hopcroft_karp
module Legacy = Vod_check.Legacy

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Flow_network                                                        *)
(* ------------------------------------------------------------------ *)

let test_network_construction () =
  let net = Flow_network.create 4 in
  checki "nodes" 4 (Flow_network.node_count net);
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:5 in
  checki "arc pair per edge" 2 (Flow_network.arc_count net);
  checki "src" 0 (Flow_network.arc_src net a);
  checki "dst" 1 (Flow_network.arc_dst net a);
  checki "capacity" 5 (Flow_network.capacity net a);
  checki "flow starts 0" 0 (Flow_network.flow net a);
  checki "residual = cap" 5 (Flow_network.residual net a)

let test_network_push_and_reset () =
  let net = Flow_network.create 2 in
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:3 in
  Flow_network.push net a 2;
  checki "flow" 2 (Flow_network.flow net a);
  checki "residual" 1 (Flow_network.residual net a);
  checki "reverse residual" 2 (Flow_network.residual net (a lxor 1));
  Flow_network.reset_flow net;
  checki "reset flow" 0 (Flow_network.flow net a);
  checki "reset residual" 3 (Flow_network.residual net a)

let test_network_invalid () =
  let net = Flow_network.create 2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Flow_network.add_edge: negative capacity") (fun () ->
      ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:(-1)));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Flow_network.add_edge: endpoint out of range") (fun () ->
      ignore (Flow_network.add_edge net ~src:0 ~dst:2 ~cap:1))

(* A classic 6-node instance with known max flow 23 (CLRS-style). *)
let clrs_network () =
  let net = Flow_network.create 6 in
  let e = Flow_network.add_edge net in
  ignore (e ~src:0 ~dst:1 ~cap:16);
  ignore (e ~src:0 ~dst:2 ~cap:13);
  ignore (e ~src:1 ~dst:2 ~cap:10);
  ignore (e ~src:2 ~dst:1 ~cap:4);
  ignore (e ~src:1 ~dst:3 ~cap:12);
  ignore (e ~src:3 ~dst:2 ~cap:9);
  ignore (e ~src:2 ~dst:4 ~cap:14);
  ignore (e ~src:4 ~dst:3 ~cap:7);
  ignore (e ~src:3 ~dst:5 ~cap:20);
  ignore (e ~src:4 ~dst:5 ~cap:4);
  net

let test_dinic_clrs () =
  let net = clrs_network () in
  checki "max flow" 23 (Dinic_flow.max_flow net ~src:0 ~sink:5);
  checkb "conservation" true (Flow_network.check_conservation net ~src:0 ~sink:5)

let test_push_relabel_clrs () =
  let net = clrs_network () in
  checki "max flow" 23 (Push_relabel.max_flow net ~src:0 ~sink:5);
  checkb "conservation" true (Flow_network.check_conservation net ~src:0 ~sink:5)

let test_dinic_disconnected () =
  let net = Flow_network.create 4 in
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:10);
  ignore (Flow_network.add_edge net ~src:2 ~dst:3 ~cap:10);
  checki "no path" 0 (Dinic_flow.max_flow net ~src:0 ~sink:3)

let test_dinic_parallel_edges () =
  let net = Flow_network.create 2 in
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:3);
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:4);
  checki "parallel edges sum" 7 (Dinic_flow.max_flow net ~src:0 ~sink:1)

let test_dinic_limit () =
  let net = clrs_network () in
  let f = Dinic_flow.max_flow ~limit:5 net ~src:0 ~sink:5 in
  checkb "limit respected" true (f <= 5);
  checkb "limit progress" true (f > 0)

let test_dinic_bottleneck_chain () =
  let net = Flow_network.create 5 in
  List.iteri
    (fun i cap -> ignore (Flow_network.add_edge net ~src:i ~dst:(i + 1) ~cap))
    [ 9; 3; 7; 5 ];
  checki "chain bottleneck" 3 (Dinic_flow.max_flow net ~src:0 ~sink:4)

let test_dinic_invalid () =
  let net = Flow_network.create 3 in
  Alcotest.check_raises "src=sink" (Invalid_argument "Dinic_flow.max_flow: src = sink")
    (fun () -> ignore (Dinic_flow.max_flow net ~src:1 ~sink:1))

(* Random networks: Dinic and push-relabel must agree. *)
let random_network g n_nodes n_edges max_cap =
  let net = Flow_network.create n_nodes in
  for _ = 1 to n_edges do
    let src = Prng.int g n_nodes and dst = Prng.int g n_nodes in
    if src <> dst then ignore (Flow_network.add_edge net ~src ~dst ~cap:(Prng.int g max_cap))
  done;
  net

let test_solvers_agree_random () =
  let g = Prng.create ~seed:99 () in
  for _ = 1 to 50 do
    let n = 2 + Prng.int g 12 in
    let build_seed = Prng.bits g in
    let build () = random_network (Prng.create ~seed:build_seed ()) n (3 * n) 10 in
    let n1 = build () and n2 = build () in
    let f1 = Dinic_flow.max_flow n1 ~src:0 ~sink:(n - 1) in
    let f2 = Push_relabel.max_flow n2 ~src:0 ~sink:(n - 1) in
    checki "solver agreement" f1 f2;
    checkb "dinic conservation" true (Flow_network.check_conservation n1 ~src:0 ~sink:(n - 1));
    checkb "pr conservation" true (Flow_network.check_conservation n2 ~src:0 ~sink:(n - 1))
  done

(* ------------------------------------------------------------------ *)
(* Hopcroft-Karp                                                       *)
(* ------------------------------------------------------------------ *)

let test_hk_perfect_matching () =
  (* 3 requests, 3 boxes, a cycle structure with a unique perfect matching *)
  let r =
    Hopcroft_karp.solve_slots ~n_left:3 ~n_right:3
      ~adj:[| [| 0 |]; [| 0; 1 |]; [| 1; 2 |] |]
      ~right_cap:[| 1; 1; 1 |] ()
  in
  checki "size" 3 r.size;
  checki "l0" 0 r.assignment.(0);
  checki "l1" 1 r.assignment.(1);
  checki "l2" 2 r.assignment.(2)

let test_hk_capacitated () =
  (* one box with 3 slots serves all requests *)
  let r =
    Hopcroft_karp.solve_slots ~n_left:3 ~n_right:1
      ~adj:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~right_cap:[| 3 |] ()
  in
  checki "size" 3 r.size;
  checki "load" 3 r.right_load.(0)

let test_hk_saturated () =
  let r =
    Hopcroft_karp.solve_slots ~n_left:3 ~n_right:1
      ~adj:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~right_cap:[| 2 |] ()
  in
  checki "only two served" 2 r.size

let test_hk_empty () =
  let r = Hopcroft_karp.solve_slots ~n_left:0 ~n_right:0 ~adj:[||] ~right_cap:[||] () in
  checki "empty" 0 r.size

let test_hk_isolated_left () =
  let r =
    Hopcroft_karp.solve_slots ~n_left:2 ~n_right:1 ~adj:[| [||]; [| 0 |] |]
      ~right_cap:[| 1 |] ()
  in
  checki "isolated unmatched" 1 r.size;
  checki "unmatched is -1" (-1) r.assignment.(0)

let test_hk_invalid () =
  Alcotest.check_raises "neg cap"
    (Invalid_argument "Hopcroft_karp.solve_slots: negative cap") (fun () ->
      ignore
        (Hopcroft_karp.solve_slots ~n_left:1 ~n_right:1 ~adj:[| [| 0 |] |]
           ~right_cap:[| -1 |] ()))

(* ------------------------------------------------------------------ *)
(* Bipartite                                                           *)
(* ------------------------------------------------------------------ *)

(* [fill] for [Bipartite.create] / [rebuild] that emits [rows.(l)]. *)
let emit_rows rows l emit = Array.iter emit rows.(l)

(* An instance with the given raw rows (any order, duplicates allowed). *)
let of_rows ~right_cap rows =
  Bipartite.create ~n_left:(Array.length rows) ~n_right:(Array.length right_cap)
    ~right_cap ~fill:(emit_rows rows)

(* The rows of a CSR instance, as fresh arrays. *)
let rows_of csr =
  let row_start = Csr.row_start csr in
  Array.init (Csr.n_left csr) (fun l ->
      Array.sub (Csr.col csr) row_start.(l) (row_start.(l + 1) - row_start.(l)))

let simple_instance () =
  of_rows ~right_cap:[| 2; 1; 1 |] [| [| 0 |]; [| 0 |]; [| 1 |]; [| 2 |] |]

(* The engine's matcher and the two independent legacy matchers the
   oracle panel diffs it against. *)
let matchers = [ (fun b -> Bipartite.solve b); Legacy.push_relabel; Legacy.hopcroft_karp ]
let legacy_solvers = Legacy.[ dinic; push_relabel; hopcroft_karp ]

let test_bipartite_feasible_all_algorithms () =
  List.iter
    (fun solve ->
      let b = simple_instance () in
      let o : Bipartite.outcome = solve b in
      checki "all matched" 4 o.matched;
      (* box 0 has 2 slots and serves requests 0 and 1 *)
      checki "box0 load" 2 o.right_load.(0);
      Array.iteri (fun l r -> checkb (Printf.sprintf "req %d served" l) true (r >= 0)) o.assignment)
    matchers

let test_bipartite_duplicate_edges_ignored () =
  let b = of_rows ~right_cap:[| 5 |] [| [| 0; 0 |] |] in
  checki "degree deduplicated" 1 (Bipartite.degree b 0);
  let o = Bipartite.solve b in
  checki "matched once" 1 o.matched;
  checki "load 1" 1 o.right_load.(0)

let test_bipartite_infeasible () =
  let b = of_rows ~right_cap:[| 2 |] [| [| 0 |]; [| 0 |]; [| 0 |] |] in
  checkb "infeasible" false (Bipartite.is_feasible b);
  match Bipartite.hall_violator b with
  | None -> Alcotest.fail "expected a violator"
  | Some v ->
      checkb "violation holds" true (v.server_slots < List.length v.requests);
      checki "X is all three requests" 3 (List.length v.requests);
      checki "slots" 2 v.server_slots

let test_bipartite_feasible_no_violator () =
  let b = simple_instance () in
  checkb "no violator when feasible" true (Bipartite.hall_violator b = None)

let test_bipartite_violator_is_localised () =
  (* requests 0,1 fight over box 0 (1 slot); requests 2,3 are fine *)
  let b = of_rows ~right_cap:[| 1; 1; 1 |] [| [| 0 |]; [| 0 |]; [| 1 |]; [| 2 |] |] in
  match Bipartite.hall_violator b with
  | None -> Alcotest.fail "expected violator"
  | Some v ->
      checkb "contains the contested pair" true
        (List.mem 0 v.requests && List.mem 1 v.requests);
      checkb "excludes satisfied requests" true
        ((not (List.mem 2 v.requests)) && not (List.mem 3 v.requests));
      checkb "certificate valid" true (v.server_slots < List.length v.requests)

let test_bipartite_zero_capacity_boxes () =
  let right_cap = [| 0; 1 |] in
  let b = of_rows ~right_cap [| [| 0 |] |] in
  checkb "zero-cap box cannot serve" false (Bipartite.is_feasible b);
  Bipartite.rebuild b ~n_left:1 ~right_cap ~fill:(emit_rows [| [| 0; 1 |] |]);
  checkb "now feasible" true (Bipartite.is_feasible b)

let test_bipartite_empty () =
  let b = of_rows ~right_cap:[||] [||] in
  checkb "empty feasible" true (Bipartite.is_feasible b);
  checkb "no violator" true (Bipartite.hall_violator b = None)

(* Brute-force maximum b-matching on tiny instances, for ground truth. *)
let brute_force_max_matching ~n_left ~adj ~right_cap =
  let best = ref 0 in
  let load = Array.make (Array.length right_cap) 0 in
  let rec go l matched =
    if l = n_left then best := max !best matched
    else begin
      (* leave request l unmatched *)
      go (l + 1) matched;
      Array.iter
        (fun r ->
          if load.(r) < right_cap.(r) then begin
            load.(r) <- load.(r) + 1;
            go (l + 1) (matched + 1);
            load.(r) <- load.(r) - 1
          end)
        adj.(l)
    end
  in
  go 0 0;
  !best

let random_bipartite g ~n_left ~n_right ~max_cap ~edge_prob =
  let right_cap = Array.init n_right (fun _ -> Prng.int g (max_cap + 1)) in
  let adj =
    Array.init n_left (fun _ ->
        let row = Vec.create () in
        for r = 0 to n_right - 1 do
          if Prng.float g 1.0 < edge_prob then Vec.push row r
        done;
        Vec.to_array row)
  in
  (adj, right_cap)

let test_matching_vs_bruteforce () =
  let g = Prng.create ~seed:7 () in
  for _ = 1 to 60 do
    let n_left = 1 + Prng.int g 6 and n_right = 1 + Prng.int g 5 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.5 in
    let truth = brute_force_max_matching ~n_left ~adj ~right_cap in
    let b = of_rows ~right_cap adj in
    List.iter
      (fun solve -> checki "matches brute force" truth (solve b).Bipartite.matched)
      matchers
  done

(* The Hall certificate is canonical: its requests are exactly the
   lefts reachable by alternating paths (any edge left -> right, a
   matched edge right -> left) from the requests a maximum matching
   leaves free, and its servers are the rights those paths reach.  That
   set is the minimal minimum cut's source side, the same whichever
   maximum flow or matching produced it; the test computes it from the
   CSR core's matching and from each legacy solver's, so the
   certificate is also checked without the CSR core. *)
let alternating_closure ~adj ~n_right (o : Bipartite.outcome) =
  let n_left = Array.length adj in
  let occupants = Array.make n_right [] in
  Array.iteri
    (fun l r -> if r >= 0 then occupants.(r) <- l :: occupants.(r))
    o.assignment;
  let left_seen = Array.make n_left false and right_seen = Array.make n_right false in
  let queue = Queue.create () in
  Array.iteri
    (fun l r ->
      if r < 0 then begin
        left_seen.(l) <- true;
        Queue.add l queue
      end)
    o.assignment;
  while not (Queue.is_empty queue) do
    Array.iter
      (fun r ->
        if not right_seen.(r) then begin
          right_seen.(r) <- true;
          List.iter
            (fun l' ->
              if not left_seen.(l') then begin
                left_seen.(l') <- true;
                Queue.add l' queue
              end)
            occupants.(r)
        end)
      adj.(Queue.pop queue)
  done;
  let members seen =
    List.filter (fun i -> seen.(i)) (List.init (Array.length seen) Fun.id)
  in
  (members left_seen, members right_seen)

let test_hall_certificate_canonical () =
  let g = Prng.create ~seed:0xca11 () in
  let closure_solvers =
    [
      ("csr", fun b -> Bipartite.solve b);
      ("dinic_legacy", Legacy.dinic);
      ("push_relabel_legacy", Legacy.push_relabel);
      ("hopcroft_karp_slots", Legacy.hopcroft_karp);
    ]
  in
  (* one arena for every instance: each certificate is read after
     solves of other shapes, feasible and infeasible in turn *)
  let dirty = Arena.create () in
  let infeasible = ref 0 and feasible = ref 0 in
  for _ = 1 to 300 do
    let n_left = 1 + Prng.int g 12 and n_right = 1 + Prng.int g 8 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.3 in
    let b = of_rows ~right_cap adj in
    let fresh = Bipartite.hall_violator b in
    checkb "dirty arena = fresh arena" true (Bipartite.hall_violator ~arena:dirty b = fresh);
    match fresh with
    | None ->
        incr feasible;
        checki "feasible" n_left (Bipartite.solve b).Bipartite.matched
    | Some v ->
        incr infeasible;
        List.iter
          (fun (name, solve) ->
            let requests, servers = alternating_closure ~adj ~n_right (solve b) in
            Alcotest.(check (list int))
              (name ^ ": requests = alternating closure")
              requests v.requests;
            Alcotest.(check (list int))
              (name ^ ": servers = rights it reaches")
              servers v.servers)
          closure_solvers
  done;
  checkb "draws include infeasible instances" true (!infeasible >= 100);
  checkb "draws include feasible instances" true (!feasible >= 20)

(* ------------------------------------------------------------------ *)
(* CSR builder and solver arenas                                       *)
(* ------------------------------------------------------------------ *)

(* The reference normal form: per-row sorted, deduplicated. *)
let normalise adj =
  Array.map (fun row -> Array.of_list (List.sort_uniq compare (Array.to_list row))) adj

let check_rows = Alcotest.(check (array (array int)))

let test_csr_roundtrip_basic () =
  (* duplicates, an empty row, unsorted emission order *)
  let adj = [| [| 2; 0; 2; 1 |]; [||]; [| 1; 1 |] |] in
  let csr = Bipartite.csr (of_rows ~right_cap:[| 1; 1; 1 |] adj) in
  checki "n_left" 3 (Csr.n_left csr);
  checki "n_right" 3 (Csr.n_right csr);
  checki "distinct edges" 4 (Csr.n_edges csr);
  check_rows "round-trip" (normalise adj) (rows_of csr);
  checki "degree dedups" 3 (Csr.degree csr 0);
  checki "degree empty" 0 (Csr.degree csr 1);
  checkb "mem" true (Csr.mem csr ~left:0 ~right:1);
  checkb "not mem" false (Csr.mem csr ~left:1 ~right:0)

let test_csr_builder_reuse () =
  let csr = Csr.create ~n_right:4 in
  (* three fills of different shapes through the same buffers *)
  Csr.rebuild_rows csr ~n_left:2 ~fill:(emit_rows [| [| 3; 3; 0 |]; [| 2 |] |]);
  check_rows "first fill" [| [| 0; 3 |]; [| 2 |] |] (rows_of csr);
  Csr.set_right_caps csr [| 5; 6; 7; 8 |];
  Csr.rebuild_rows csr ~n_left:3 ~fill:(emit_rows [| [| 1 |]; [| 0; 1 |]; [||] |]);
  check_rows "second fill" [| [| 1 |]; [| 0; 1 |]; [||] |] (rows_of csr);
  checki "caps follow the refill" 6 (Csr.right_cap csr 1);
  Csr.rebuild_rows csr ~n_left:1 ~fill:(emit_rows [| [| 3; 1; 3 |] |]);
  check_rows "shrunk fill" [| [| 1; 3 |] |] (rows_of csr);
  checki "edge count follows the refill" 2 (Csr.n_edges csr)

(* [reserve] keeps the current rows, and a rebuild and solve within the
   reserved sizes (duplicates counted) grow no buffer: the engine's
   fallback round after rounds its walk closed. *)
let test_bipartite_reserve () =
  let right_cap = [| 3; 3; 3 |] in
  let b = of_rows ~right_cap [| [| 2 |] |] in
  let arena = Arena.create () in
  ignore (Bipartite.solve_in_arena ~arena b : int);
  (* past every buffer's first size: 9 rows, 27 entries, 18 distinct *)
  let rows = Array.init 9 (fun l -> [| l mod 3; (l + 1) mod 3; l mod 3 |]) in
  Bipartite.reserve ~arena b ~n_left:9 ~n_edges:27;
  check_rows "rows kept" [| [| 2 |] |] (rows_of (Bipartite.csr b));
  let csr = Bipartite.csr b in
  let col = Csr.col csr and row_start = Csr.row_start csr and words = Arena.words arena in
  Bipartite.rebuild b ~n_left:9 ~right_cap ~fill:(emit_rows rows);
  checki "solved" 9 (Bipartite.solve_in_arena ~arena b);
  check_rows "rebuilt" (normalise rows) (rows_of csr);
  checkb "col not grown" true (Csr.col csr == col);
  checkb "row_start not grown" true (Csr.row_start csr == row_start);
  checki "arena not grown" words (Arena.words arena);
  Alcotest.check_raises "negative size" (Invalid_argument "Csr.reserve: negative size")
    (fun () -> Bipartite.reserve ~arena b ~n_left:(-1) ~n_edges:0)

let outcome_triple (o : Bipartite.outcome) =
  (o.Bipartite.matched, Array.to_list o.Bipartite.assignment, Array.to_list o.Bipartite.right_load)

let test_arena_reuse_deterministic () =
  let g = Prng.create ~seed:0xa3e () in
  let arena = Arena.create () in
  for _ = 1 to 60 do
    let n_left = 1 + Prng.int g 12 and n_right = 1 + Prng.int g 8 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5 in
    let b = of_rows ~right_cap adj in
    (* same instance twice through the same dirty arena: the solver
       must initialise everything it reads, so outcomes are identical *)
    let o1 = Bipartite.solve ~arena b in
    let o2 = Bipartite.solve ~arena b in
    checkb "dirty-arena determinism" true (outcome_triple o1 = outcome_triple o2);
    List.iter
      (fun solve ->
        checki "agrees with legacy" (solve b).Bipartite.matched o1.Bipartite.matched)
      legacy_solvers
  done

(* Dinic builds its reverse-residual transpose and clears its levels
   only when greedy first-fit leaves a request free.  One dirtied arena
   runs three instances: the first needs an augmenting phase, the
   second is saturated by greedy (no transpose built), the third has a
   different shape and needs a phase again.  Its augmenting path must
   find the occupant of right 1 through a fresh transpose: the first
   instance's transpose lists a different edge there, so reusing it
   leaves a request unmatched. *)
let test_dinic_lazy_transpose () =
  let arena = Arena.create () in
  let g = Prng.create ~seed:0x1a2 () in
  (* dirty every slab with unrelated solves *)
  for _ = 1 to 3 do
    let adj, right_cap =
      random_bipartite g ~n_left:9 ~n_right:6 ~max_cap:2 ~edge_prob:0.5
    in
    ignore (Bipartite.solve ~arena (of_rows ~right_cap adj) : Bipartite.outcome)
  done;
  let step name ~right_cap adj =
    let b = of_rows ~right_cap adj in
    let legacy = Legacy.dinic b in
    let size = Dinic.solve_csr ~arena (Bipartite.csr b) in
    checki name legacy.Bipartite.matched size;
    checki (name ^ ": all served") (Array.length adj) size
  in
  (* greedy seats 0 on 0; 1 is free and reroutes 0 to 1 *)
  step "needs a phase" ~right_cap:[| 1; 1 |] [| [| 0; 1 |]; [| 0 |] |];
  step "greedy saturates" ~right_cap:[| 1; 1; 1 |] [| [| 0 |]; [| 1 |]; [| 2 |] |];
  (* greedy seats 0 on 1; 1 is free and reroutes 0 to 2 *)
  step "new shape needs a phase" ~right_cap:[| 1; 1; 1 |] [| [| 1; 2 |]; [| 1 |] |]

let test_bipartite_rebuild_reuse () =
  let b = of_rows ~right_cap:[| 1; 1 |] [| [| 0 |]; [| 0 |] |] in
  checki "first shape matched" 1 (Bipartite.solve b).Bipartite.matched;
  (* refill to a different shape, reusing every buffer *)
  Bipartite.rebuild b ~n_left:3 ~right_cap:[| 2; 1 |]
    ~fill:(emit_rows [| [| 0 |]; [| 0 |]; [| 1 |] |]);
  let o = Bipartite.solve b in
  checki "second shape matched" 3 o.Bipartite.matched;
  checki "right load follows the new caps" 2 o.Bipartite.right_load.(0);
  Alcotest.check_raises "rebuild validates caps"
    (Invalid_argument "Bipartite.rebuild: right_cap length mismatch") (fun () ->
      Bipartite.rebuild b ~n_left:1 ~right_cap:[| 1 |] ~fill:(fun _ _ -> ()));
  Alcotest.check_raises "rebuild validates rights"
    (Invalid_argument "Csr.rebuild_rows: emitted right out of range") (fun () ->
      Bipartite.rebuild b ~n_left:1 ~right_cap:[| 1; 1 |] ~fill:(fun _ emit -> emit 2))

let test_network_clear_reuse () =
  (* arc_hint pre-sizes; clear drops arcs but keeps nodes and capacity *)
  let net = Flow_network.create ~arc_hint:8 4 in
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:5 in
  let _ = Flow_network.add_edge net ~src:1 ~dst:3 ~cap:2 in
  Flow_network.push net a 1;
  Flow_network.clear net;
  checki "arcs dropped" 0 (Flow_network.arc_count net);
  checki "nodes kept" 4 (Flow_network.node_count net);
  let b = Flow_network.add_edge net ~src:0 ~dst:3 ~cap:7 in
  checki "rebuild starts clean" 0 (Flow_network.flow net b);
  checki "rebuild max flow" 7 (Dinic_flow.max_flow net ~src:0 ~sink:3);
  Alcotest.check_raises "negative hint"
    (Invalid_argument "Flow_network.create: negative arc hint") (fun () ->
      ignore (Flow_network.create ~arc_hint:(-1) 2))

(* ------------------------------------------------------------------ *)
(* Row-major rebuilds                                                  *)
(* ------------------------------------------------------------------ *)

let test_rebuild_sorts_rows () =
  let b = of_rows ~right_cap:[| 1; 1 |] [| [| 0 |]; [| 1 |] |] in
  (* row 1 arrives unsorted, with a duplicate the rebuild must drop *)
  Bipartite.rebuild b ~n_left:2 ~right_cap:[| 1; 1 |] ~fill:(fun l emit ->
      if l = 0 then emit 0
      else begin
        emit 1;
        emit 0;
        emit 1
      end);
  check_rows "rebuilt view" [| [| 0 |]; [| 0; 1 |] |] (rows_of (Bipartite.csr b));
  checki "rebuilt solve" 2 (Bipartite.solve b).Bipartite.matched

(* [fill] is called once per row, in ascending order, on a fresh build
   and on rebuilds that grow and shrink the instance: a caller drawing
   from a PRNG inside [fill] keeps its draw order. *)
let test_rebuild_fill_order () =
  let csr = Csr.create ~n_right:3 in
  List.iter
    (fun n_left ->
      let calls = ref [] in
      Csr.rebuild_rows csr ~n_left ~fill:(fun l emit ->
          calls := l :: !calls;
          emit (l mod 3));
      Alcotest.(check (list int))
        (Printf.sprintf "%d rows: one call each, ascending" n_left)
        (List.init n_left Fun.id) (List.rev !calls))
    [ 0; 5; 2; 9 ]

(* A raw row of a degree-bounded request: each right with probability
   0.4, some twice, shuffled. *)
let short_row g n_right =
  let picks = ref [] in
  for r = 0 to n_right - 1 do
    if Prng.float g 1.0 < 0.4 then begin
      picks := r :: !picks;
      if Prng.float g 1.0 < 0.2 then picks := r :: !picks
    end
  done;
  let row = Array.of_list !picks in
  Sample.shuffle g row;
  row

(* A raw cache-window row: 25 to 64 draws with repetition, long enough
   for the radix sort, mixed with short rows. *)
let long_or_short_row g n_right =
  if Prng.bool g then short_row g (min n_right 8)
  else Array.init (25 + Prng.int g 40) (fun _ -> Prng.int g n_right)

(* [Csr.rebuild_rows] against the [List.sort_uniq] normal form of the
   same raw rows — unsorted, duplicates allowed, as the engine emits
   them — over successive rebuilds of one instance that shrink it and
   then grow it past every buffer.  Long rows take the radix sort; the
   generator's [n_right] ranges give it one, two and three 8-bit
   passes. *)
let rebuild_equals_reference (seed, n_left, n_right) =
  let g = Prng.create ~seed () in
  let rebuilt = Csr.create ~n_right in
  List.for_all
    (fun n_left ->
      let rows = Array.init n_left (fun _ -> long_or_short_row g n_right) in
      Csr.rebuild_rows rebuilt ~n_left ~fill:(emit_rows rows);
      let reference = normalise rows in
      Csr.n_edges rebuilt = Array.fold_left (fun a r -> a + Array.length r) 0 reference
      && rows_of rebuilt = reference)
    [ n_left; (n_left + 1) / 2; (4 * n_left) + 9 ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  let instance_gen =
    Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n_left = int_range 1 10 in
      let* n_right = int_range 1 8 in
      return (seed, n_left, n_right))
  in
  let arb = make instance_gen in
  [
    Test.make ~name:"three matchers agree on random instances" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5 in
        let b = of_rows ~right_cap adj in
        match List.map (fun solve -> (solve b).Bipartite.matched) matchers with
        | [ d; p; h ] -> d = p && p = h
        | _ -> false);
    Test.make ~name:"assignment respects adjacency and capacity" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5 in
        let b = of_rows ~right_cap adj in
        let o = Bipartite.solve b in
        let load = Array.make n_right 0 in
        let ok = ref true in
        Array.iteri
          (fun l r ->
            if r >= 0 then begin
              if not (Array.mem r adj.(l)) then ok := false;
              load.(r) <- load.(r) + 1
            end)
          o.Bipartite.assignment;
        Array.iteri (fun r c -> if c > right_cap.(r) then ok := false) load;
        !ok);
    Test.make ~name:"hall violator certificate is always valid" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.4 in
        let b = of_rows ~right_cap adj in
        match Bipartite.hall_violator b with
        | None -> Bipartite.is_feasible b
        | Some v ->
            (* certificate must be a true violation and must cover all
               neighbours of X *)
            let module S = Set.Make (Int) in
            let servers = S.of_list v.Bipartite.servers in
            let neighbours_covered =
              List.for_all
                (fun l -> Array.for_all (fun r -> S.mem r servers) adj.(l))
                v.Bipartite.requests
            in
            let slots = List.fold_left (fun a r -> a + right_cap.(r)) 0 v.Bipartite.servers in
            (not (Bipartite.is_feasible b))
            && neighbours_covered
            && slots = v.Bipartite.server_slots
            && slots < List.length v.Bipartite.requests);
    (* The certificate against a model: a plain BFS over the alternating
       paths of [Bipartite.solve]'s matching, from its free requests.
       The closure is the same for every maximum matching, so the
       solvers need not agree on the matching itself. *)
    Test.make ~name:"hall violator is the alternating closure of the free requests"
      ~count:150 arb (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.4 in
        let b = of_rows ~right_cap adj in
        let assignment = (Bipartite.solve b).Bipartite.assignment in
        let seen_left = Array.map (fun r -> r < 0) assignment in
        let seen_right = Array.make n_right false in
        let queue = Queue.create () in
        Array.iteri (fun l free -> if free then Queue.add l queue) seen_left;
        while not (Queue.is_empty queue) do
          Array.iter
            (fun r ->
              if not seen_right.(r) then begin
                seen_right.(r) <- true;
                Array.iteri
                  (fun l' r' ->
                    if r' = r && not seen_left.(l') then begin
                      seen_left.(l') <- true;
                      Queue.add l' queue
                    end)
                  assignment
              end)
            adj.(Queue.pop queue)
        done;
        let members seen =
          List.filter (fun i -> seen.(i)) (List.init (Array.length seen) Fun.id)
        in
        match Bipartite.hall_violator b with
        | None -> members seen_left = []
        | Some v ->
            let neighbours =
              List.sort_uniq Int.compare
                (List.concat_map (fun l -> Array.to_list adj.(l)) v.Bipartite.requests)
            in
            v.Bipartite.requests = members seen_left
            && v.Bipartite.servers = members seen_right
            && v.Bipartite.servers = neighbours);
    Test.make ~name:"CSR builder round-trips arbitrary adjacencies" ~count:200 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap =
          random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5
        in
        (* inject duplicates and keep some rows empty *)
        let adj =
          Array.map
            (fun row ->
              if Array.length row > 0 && Prng.bool g then
                Array.append row [| row.(Prng.int g (Array.length row)) |]
              else row)
            adj
        in
        let csr = Bipartite.csr (of_rows ~right_cap adj) in
        rows_of csr = normalise adj
        && Csr.n_edges csr = Array.fold_left (fun a r -> a + Array.length r) 0 (normalise adj));
    Test.make ~name:"dirty-arena solves are deterministic and optimal" ~count:100 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap =
          random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5
        in
        let b = of_rows ~right_cap adj in
        let arena = Arena.create () in
        (* dirty the arena on a different shape first *)
        let noise =
          of_rows ~right_cap:[| 1; 2 |] [| [| 1 |]; [||]; [||]; [||]; [||] |]
        in
        ignore (Bipartite.solve ~arena noise);
        let o1 = Bipartite.solve ~arena b in
        let o2 = Bipartite.solve ~arena b in
        outcome_triple o1 = outcome_triple o2
        && List.for_all
             (fun solve -> o1.Bipartite.matched = (solve b).Bipartite.matched)
             legacy_solvers);
    Test.make ~name:"rebuild_rows equals the sort_uniq reference" ~count:100
      (make
         Gen.(
           let* seed = int_range 0 1_000_000 in
           let* n_left = int_range 1 10 in
           (* one, two and three 8-bit radix passes *)
           let* n_right =
             oneof [ int_range 1 255; int_range 256 65_536; int_range 65_537 70_000 ]
           in
           return (seed, n_left, n_right)))
      rebuild_equals_reference;
    Test.make ~name:"max flow is invariant under solver choice" ~count:100
      (make
         Gen.(
           let* seed = int_range 0 1_000_000 in
           let* n = int_range 2 14 in
           return (seed, n)))
      (fun (seed, n) ->
        let build s = random_network (Prng.create ~seed:s ()) n (3 * n) 8 in
        let a = build seed and b = build seed in
        Dinic_flow.max_flow a ~src:0 ~sink:(n - 1)
        = Push_relabel.max_flow b ~src:0 ~sink:(n - 1));
  ]

let suites =
  [
    ( "graph.network",
      [
        Alcotest.test_case "construction" `Quick test_network_construction;
        Alcotest.test_case "push and reset" `Quick test_network_push_and_reset;
        Alcotest.test_case "invalid args" `Quick test_network_invalid;
      ] );
    ( "graph.maxflow",
      [
        Alcotest.test_case "dinic CLRS instance" `Quick test_dinic_clrs;
        Alcotest.test_case "push-relabel CLRS instance" `Quick test_push_relabel_clrs;
        Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
        Alcotest.test_case "parallel edges" `Quick test_dinic_parallel_edges;
        Alcotest.test_case "flow limit" `Quick test_dinic_limit;
        Alcotest.test_case "bottleneck chain" `Quick test_dinic_bottleneck_chain;
        Alcotest.test_case "invalid args" `Quick test_dinic_invalid;
        Alcotest.test_case "solvers agree on random nets" `Quick test_solvers_agree_random;
      ] );
    ( "graph.hopcroft_karp",
      [
        Alcotest.test_case "perfect matching" `Quick test_hk_perfect_matching;
        Alcotest.test_case "capacitated right" `Quick test_hk_capacitated;
        Alcotest.test_case "saturated right" `Quick test_hk_saturated;
        Alcotest.test_case "empty" `Quick test_hk_empty;
        Alcotest.test_case "isolated left" `Quick test_hk_isolated_left;
        Alcotest.test_case "invalid" `Quick test_hk_invalid;
      ] );
    ( "graph.bipartite",
      [
        Alcotest.test_case "feasible, all algorithms" `Quick test_bipartite_feasible_all_algorithms;
        Alcotest.test_case "duplicate edges ignored" `Quick test_bipartite_duplicate_edges_ignored;
        Alcotest.test_case "infeasible + violator" `Quick test_bipartite_infeasible;
        Alcotest.test_case "feasible has no violator" `Quick test_bipartite_feasible_no_violator;
        Alcotest.test_case "violator localised" `Quick test_bipartite_violator_is_localised;
        Alcotest.test_case "zero-capacity boxes" `Quick test_bipartite_zero_capacity_boxes;
        Alcotest.test_case "empty instance" `Quick test_bipartite_empty;
        Alcotest.test_case "matches brute force" `Quick test_matching_vs_bruteforce;
        Alcotest.test_case "hall certificate is canonical" `Quick
          test_hall_certificate_canonical;
      ] );
    ( "graph.csr",
      [
        Alcotest.test_case "round-trip basics" `Quick test_csr_roundtrip_basic;
        Alcotest.test_case "builder reuse" `Quick test_csr_builder_reuse;
        Alcotest.test_case "arena reuse deterministic" `Quick test_arena_reuse_deterministic;
        Alcotest.test_case "dinic lazy transpose" `Quick test_dinic_lazy_transpose;
        Alcotest.test_case "bipartite rebuild reuse" `Quick test_bipartite_rebuild_reuse;
        Alcotest.test_case "reserve sizes a rebuild and solve" `Quick test_bipartite_reserve;
        Alcotest.test_case "network clear + arc_hint" `Quick test_network_clear_reuse;
        Alcotest.test_case "rebuild sorts rows" `Quick test_rebuild_sorts_rows;
        Alcotest.test_case "fill runs once per row, in order" `Quick
          test_rebuild_fill_order;
      ] );
    ("graph.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
