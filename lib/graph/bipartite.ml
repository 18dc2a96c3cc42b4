open Vod_util

(* The instance is its [Csr.t]: it holds the edges and the per-right
   capacities, and doubles as the reusable builder.  [create] and
   [rebuild] (the engine's per-round path) both write its rows through
   [Csr.rebuild_rows], the one fill path, and every solver reads those
   rows. *)
type t = Csr.t

let validate_shape ~who ~n_left ~n_right ~right_cap =
  if n_left < 0 || n_right < 0 then invalid_arg (who ^ ": negative size");
  if Array.length right_cap <> n_right then
    invalid_arg (who ^ ": right_cap length mismatch")

let rebuild t ~n_left ~right_cap ~fill =
  let n_right = Csr.n_right t in
  validate_shape ~who:"Bipartite.rebuild" ~n_left ~n_right ~right_cap;
  Csr.set_right_caps t right_cap;
  Csr.rebuild_rows t ~n_left ~fill

let create ~n_left ~n_right ~right_cap ~fill =
  validate_shape ~who:"Bipartite.create" ~n_left ~n_right ~right_cap;
  let t = Csr.create ~n_right in
  rebuild t ~n_left ~right_cap ~fill;
  t

let n_left = Csr.n_left
let n_right = Csr.n_right
let right_cap t = Array.sub (Csr.right_cap_array t) 0 (Csr.n_right t)

let csr t = t
let degree = Csr.degree

type outcome = { matched : int; assignment : int array; right_load : int array }

let outcome_of_arena t arena size =
  {
    matched = size;
    assignment = Array.sub (Arena.assignment arena) 0 (n_left t);
    right_load = Array.sub (Arena.right_load arena) 0 (n_right t);
  }

let solve_in_arena ~arena t = Dinic.solve_csr ~arena (csr t)

let reserve ~arena t ~n_left ~n_edges =
  Csr.reserve t ~n_left ~n_edges;
  Dinic.reserve ~arena ~n_left ~n_right:(Csr.n_right t) ~n_edges

let solve ?arena t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  outcome_of_arena t arena (solve_in_arena ~arena t)

(* The matching a flow leaves on the request -> box arcs, where
   [arc.(e)] is the arc of CSR edge [e] and [flow] reads its flow. *)
let outcome_of_arcs t ~flow arc =
  let row_start = Csr.row_start t and col = Csr.col t in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  for l = 0 to n_left t - 1 do
    for e = row_start.(l) to row_start.(l + 1) - 1 do
      if flow arc.(e) > 0 then begin
        let r = col.(e) in
        assignment.(l) <- r;
        right_load.(r) <- right_load.(r) + 1;
        incr matched
      end
    done
  done;
  { matched = !matched; assignment; right_load }

let solve_min_cost t ~edge_cost =
  let nl = n_left t and nr = n_right t in
  let src = 0 in
  let left_base = 1 in
  let right_base = 1 + nl in
  let sink = 1 + nl + nr in
  let row_start = Csr.row_start t and col = Csr.col t in
  let right_cap = Csr.right_cap_array t in
  let net = Min_cost_flow.create (sink + 1) in
  for l = 0 to nl - 1 do
    ignore (Min_cost_flow.add_edge net ~src ~dst:(left_base + l) ~cap:1 ~cost:0)
  done;
  let middle = Array.make (Csr.n_edges t) 0 in
  for l = 0 to nl - 1 do
    for e = row_start.(l) to row_start.(l + 1) - 1 do
      let r = col.(e) in
      middle.(e) <-
        Min_cost_flow.add_edge net ~src:(left_base + l) ~dst:(right_base + r) ~cap:1
          ~cost:(edge_cost ~left:l ~right:r)
    done
  done;
  for r = 0 to nr - 1 do
    ignore
      (Min_cost_flow.add_edge net ~src:(right_base + r) ~dst:sink ~cap:right_cap.(r)
         ~cost:0)
  done;
  let _value, _cost = Min_cost_flow.solve net ~src ~sink in
  outcome_of_arcs t ~flow:(Min_cost_flow.flow net) middle

let solve_greedy ?warm_start ~rounds g t =
  let row_start = Csr.row_start t and col = Csr.col t in
  let right_cap = Csr.right_cap_array t in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  let open_seat e = right_load.(col.(e)) < right_cap.(col.(e)) in
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
            && Csr.mem t ~left:l ~right:r
          then begin
            assignment.(l) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched
          end)
        ws);
  let round = ref 0 in
  while !round < rounds && !matched < n_left t do
    incr round;
    (* 1. proposals: every unmatched request picks one candidate with
       spare capacity, uniformly at random *)
    let proposals = Array.init (max (n_right t) 1) (fun _ -> Vec.create ()) in
    for l = 0 to n_left t - 1 do
      if assignment.(l) = -1 then begin
        let n_open = ref 0 in
        for e = row_start.(l) to row_start.(l + 1) - 1 do
          if open_seat e then incr n_open
        done;
        if !n_open > 0 then begin
          (* the k-th open candidate of the row *)
          let k = ref (Vod_util.Prng.int g !n_open) and e = ref row_start.(l) in
          while not (open_seat !e && !k = 0) do
            if open_seat !e then decr k;
            incr e
          done;
          Vec.push proposals.(col.(!e)) l
        end
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
          incr matched
        done
      end
    done
  done;
  { matched = !matched; assignment; right_load }

let is_feasible t = (solve t).matched = n_left t

type violator = { requests : int list; servers : int list; server_slots : int }

(* A solve that leaves a request free ends on a BFS phase that finds
   no augmenting path; the arena keeps that phase's reach: the lefts it
   levelled and the rights it visited, i.e. every vertex an alternating
   path reaches from a free request.  Every right it visited is
   saturated, and it holds every neighbour of those lefts, so the
   lefts are a set X with slots(B(X)) = |X| - #free requests < |X|.
   That closure is the minimal minimum cut's source side of the flow
   network, the same whichever maximum matching the solver found. *)
let violator_in_arena ~arena t =
  let requests = Arena.(Array.sub arena.queue.buf 0 arena.reached) in
  Array.sort Int.compare requests;
  let servers = Bitset.to_list Arena.(arena.visited_right.bits) in
  let right_cap = Csr.right_cap_array t in
  {
    requests = Array.to_list requests;
    servers;
    server_slots = List.fold_left (fun acc r -> acc + right_cap.(r)) 0 servers;
  }

let hall_violator ?arena t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  if solve_in_arena ~arena t = n_left t then None else Some (violator_in_arena ~arena t)
