open Vod_util
module F = Flow_network

(* The instance is CSR-backed: [Csr.t] holds the edges and the
   per-right capacities, and doubles as the reusable builder: [reset] +
   [add_edge] fill it through the pending list, and [rebuild] (the
   engine's per-round path) writes its rows directly.
   [dedup] memoises the sorted [int array array] view still consumed by
   the legacy solver paths, certificates and min-cost/greedy solvers. *)
type t = {
  csr : Csr.t;
  mutable dedup : int array array option; (* memoised sorted adjacency rows *)
}

let validate_shape ~who ~n_left ~n_right ~right_cap =
  if n_left < 0 || n_right < 0 then invalid_arg (who ^ ": negative size");
  if Array.length right_cap <> n_right then
    invalid_arg (who ^ ": right_cap length mismatch")

let create ~n_left ~n_right ~right_cap =
  validate_shape ~who:"Bipartite.create" ~n_left ~n_right ~right_cap;
  let csr = Csr.create () in
  Csr.reset csr ~n_left ~n_right;
  Csr.set_right_caps csr right_cap;
  { csr; dedup = None }

let reset t ~n_left ~n_right ~right_cap =
  validate_shape ~who:"Bipartite.reset" ~n_left ~n_right ~right_cap;
  Csr.reset t.csr ~n_left ~n_right;
  Csr.set_right_caps t.csr right_cap;
  t.dedup <- None

let rebuild t ~n_left ~right_cap ~fill =
  let n_right = Csr.n_right t.csr in
  validate_shape ~who:"Bipartite.rebuild" ~n_left ~n_right ~right_cap;
  Csr.set_right_caps t.csr right_cap;
  Csr.rebuild_rows t.csr ~n_left ~fill;
  t.dedup <- None

let add_edge t ~left ~right =
  if left < 0 || left >= Csr.n_left t.csr then
    invalid_arg "Bipartite.add_edge: left out of range";
  if right < 0 || right >= Csr.n_right t.csr then
    invalid_arg "Bipartite.add_edge: right out of range";
  Csr.add_edge t.csr ~left ~right;
  t.dedup <- None

let n_left t = Csr.n_left t.csr
let n_right t = Csr.n_right t.csr
let right_cap t = Array.sub (Csr.right_cap_array t.csr) 0 (Csr.n_right t.csr)

let csr t =
  Csr.finalize t.csr;
  t.csr

let adjacency t =
  match t.dedup with
  | Some a -> a
  | None ->
      let a = Csr.to_adjacency t.csr in
      t.dedup <- Some a;
      a

let degree t l = Csr.degree t.csr l

type outcome = { matched : int; assignment : int array; right_load : int array }

let outcome_of_arena t arena size =
  {
    matched = size;
    assignment = Array.sub (Arena.assignment arena) 0 (n_left t);
    right_load = Array.sub (Arena.right_load arena) 0 (n_right t);
  }

let solve_in_arena ~arena t = Dinic.solve_csr ~arena (csr t)

let solve ?arena t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  outcome_of_arena t arena (solve_in_arena ~arena t)

(* ------------------------------------------------------------------ *)
(* Legacy adj-array solver paths                                       *)
(*                                                                     *)
(* The historical implementations — an explicit [Flow_network] for the *)
(* flow algorithms and slot expansion for Hopcroft-Karp — are kept as  *)
(* independent algorithms so the vod_check oracle panel and the fuzz   *)
(* harness can diff the engine's CSR Dinic core against them on every  *)
(* instance.                                                           *)
(* ------------------------------------------------------------------ *)

(* Flow-network encoding of Lemma 1: source 0 -> request [1 + l]
   (cap 1), request -> box [1 + n_left + r] (cap [middle_cap]), box ->
   sink (cap = upload slots).  Returns the network, its sink and the
   request -> box arc of each adjacency cell. *)
let build_network ~middle_cap t =
  let nl = n_left t and nr = n_right t in
  let right_base = 1 + nl in
  let sink = 1 + nl + nr in
  let right_cap = Csr.right_cap_array t.csr in
  let adj = adjacency t in
  let arc_hint =
    (* src arcs + middle arcs + sink arcs, two arc cells each *)
    2 * (nl + Csr.n_edges t.csr + nr)
  in
  let net = F.create ~arc_hint (sink + 1) in
  for l = 0 to nl - 1 do
    ignore (F.add_edge net ~src:0 ~dst:(1 + l) ~cap:1)
  done;
  let middle =
    Array.mapi
      (fun l row ->
        Array.map
          (fun r -> F.add_edge net ~src:(1 + l) ~dst:(right_base + r) ~cap:middle_cap)
          row)
      adj
  in
  for r = 0 to nr - 1 do
    ignore (F.add_edge net ~src:(right_base + r) ~dst:sink ~cap:right_cap.(r))
  done;
  (net, sink, middle)

let outcome_of_flow t net middle =
  let adj = adjacency t in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  for l = 0 to n_left t - 1 do
    Array.iteri
      (fun i a ->
        if F.flow net a > 0 then begin
          let r = adj.(l).(i) in
          assignment.(l) <- r;
          right_load.(r) <- right_load.(r) + 1;
          incr matched
        end)
      middle.(l)
  done;
  { matched = !matched; assignment; right_load }

type algorithm = Dinic_flow | Push_relabel_flow | Hopcroft_karp_matching

let solve_legacy ~algorithm t =
  match algorithm with
  | Dinic_flow ->
      let net, sink, middle = build_network ~middle_cap:1 t in
      let (_ : int) = Dinic.max_flow net ~src:0 ~sink in
      outcome_of_flow t net middle
  | Push_relabel_flow ->
      let net, sink, middle = build_network ~middle_cap:1 t in
      let (_ : int) = Push_relabel.max_flow net ~src:0 ~sink in
      outcome_of_flow t net middle
  | Hopcroft_karp_matching ->
      let r =
        Hopcroft_karp.solve_slots ~n_left:(n_left t) ~n_right:(n_right t)
          ~adj:(adjacency t)
          ~right_cap:(right_cap t)
          ()
      in
      { matched = r.Hopcroft_karp.size; assignment = r.assignment; right_load = r.right_load }

let solve_min_cost t ~edge_cost =
  let src = 0 in
  let left_base = 1 in
  let right_base = 1 + n_left t in
  let sink = 1 + n_left t + n_right t in
  let right_cap = Csr.right_cap_array t.csr in
  let net = Min_cost_flow.create (sink + 1) in
  let adj = adjacency t in
  for l = 0 to n_left t - 1 do
    ignore (Min_cost_flow.add_edge net ~src ~dst:(left_base + l) ~cap:1 ~cost:0)
  done;
  let middle = Array.make (max (n_left t) 1) [||] in
  for l = 0 to n_left t - 1 do
    middle.(l) <-
      Array.map
        (fun r ->
          Min_cost_flow.add_edge net ~src:(left_base + l) ~dst:(right_base + r) ~cap:1
            ~cost:(edge_cost ~left:l ~right:r))
        adj.(l)
  done;
  for r = 0 to n_right t - 1 do
    ignore
      (Min_cost_flow.add_edge net ~src:(right_base + r) ~dst:sink ~cap:right_cap.(r)
         ~cost:0)
  done;
  let _value, _cost = Min_cost_flow.solve net ~src ~sink in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  for l = 0 to n_left t - 1 do
    Array.iteri
      (fun i a ->
        if Min_cost_flow.flow net a > 0 then begin
          let r = adj.(l).(i) in
          assignment.(l) <- r;
          right_load.(r) <- right_load.(r) + 1;
          incr matched
        end)
      middle.(l)
  done;
  { matched = !matched; assignment; right_load }

let solve_greedy ?(until_stable = false) ?warm_start ~rounds g t =
  let adj = adjacency t in
  let right_cap = Csr.right_cap_array t.csr in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  (* persistent connections: re-seat requests on their previous server
     when it is still adjacent and has capacity *)
  (match warm_start with
  | None -> ()
  | Some ws ->
      if Array.length ws <> n_left t then
        invalid_arg "Bipartite.solve_greedy: warm_start length mismatch";
      Array.iteri
        (fun l r ->
          if
            r >= 0 && r < n_right t
            && right_load.(r) < right_cap.(r)
            && Array.mem r adj.(l)
          then begin
            assignment.(l) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched
          end)
        ws);
  let progress = ref true in
  let round = ref 0 in
  while (if until_stable then !progress else !round < rounds) && !matched < n_left t do
    incr round;
    if until_stable && !round > rounds * 1000 then progress := false
    else begin
      progress := false;
      (* 1. proposals: every unmatched request picks one candidate with
         spare capacity, uniformly at random *)
      let proposals = Array.init (max (n_right t) 1) (fun _ -> Vec.create ()) in
      for l = 0 to n_left t - 1 do
        if assignment.(l) = -1 then begin
          let open_candidates =
            Array.to_list adj.(l)
            |> List.filter (fun r -> right_load.(r) < right_cap.(r))
          in
          match open_candidates with
          | [] -> ()
          | candidates ->
              let arr = Array.of_list candidates in
              Vec.push proposals.(arr.(Vod_util.Prng.int g (Array.length arr))) l
        end
      done;
      (* 2. acceptance: each box takes a random subset up to capacity *)
      for r = 0 to n_right t - 1 do
        let incoming = Vec.to_array proposals.(r) in
        if Array.length incoming > 0 then begin
          Vod_util.Sample.shuffle g incoming;
          let accept = min (Array.length incoming) (right_cap.(r) - right_load.(r)) in
          for i = 0 to accept - 1 do
            assignment.(incoming.(i)) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched;
            progress := true
          done
        end
      done
    end
  done;
  { matched = !matched; assignment; right_load }

let is_feasible t = (solve t).matched = n_left t

type violator = { requests : int list; servers : int list; server_slots : int }

(* Request -> box arcs are uncuttable, so the source side S of the
   minimum cut is a request set X together with all of B(X), and the
   cut's capacity is |requests outside X| + slots(B(X)).  Any maximum
   flow leaves the same S reachable in its residual network (the
   minimal minimum cut), so the certificate does not depend on which
   augmenting paths the solver took. *)
let hall_violator t =
  let nl = n_left t in
  let net, sink, _middle = build_network ~middle_cap:F.infinite_capacity t in
  if Dinic.max_flow net ~src:0 ~sink = nl then None
  else begin
    let right_cap = Csr.right_cap_array t.csr in
    let reachable = F.residual_reachable net ~src:0 in
    let requests = ref [] and servers = ref [] and slots = ref 0 in
    for l = nl - 1 downto 0 do
      if Bitset.mem reachable (1 + l) then requests := l :: !requests
    done;
    for r = n_right t - 1 downto 0 do
      if Bitset.mem reachable (1 + nl + r) then begin
        servers := r :: !servers;
        slots := !slots + right_cap.(r)
      end
    done;
    Some { requests = !requests; servers = !servers; server_slots = !slots }
  end
