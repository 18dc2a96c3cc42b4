module B = Vod_graph.Bipartite
module Csr = Vod_graph.Csr
module F = Flow_network

(* Flow-network encoding of Lemma 1: source 0 -> request [1 + l]
   (cap 1), request -> box [1 + n_left + r] (cap 1), box -> sink
   (cap = upload slots).  Returns the network, its sink and the
   request -> box arc of each CSR edge. *)
let build_network b =
  let t = B.csr b in
  let nl = Csr.n_left t and nr = Csr.n_right t in
  let right_base = 1 + nl in
  let sink = 1 + nl + nr in
  let row_start = Csr.row_start t and col = Csr.col t in
  let right_cap = Csr.right_cap_array t in
  let m = Csr.n_edges t in
  (* src arcs + middle arcs + sink arcs, two arc cells each *)
  let net = F.create ~arc_hint:(2 * (nl + m + nr)) (sink + 1) in
  for l = 0 to nl - 1 do
    ignore (F.add_edge net ~src:0 ~dst:(1 + l) ~cap:1)
  done;
  let middle = Array.make m 0 in
  for l = 0 to nl - 1 do
    for e = row_start.(l) to row_start.(l + 1) - 1 do
      middle.(e) <- F.add_edge net ~src:(1 + l) ~dst:(right_base + col.(e)) ~cap:1
    done
  done;
  for r = 0 to nr - 1 do
    ignore (F.add_edge net ~src:(right_base + r) ~dst:sink ~cap:right_cap.(r))
  done;
  (net, sink, middle)

let network_solver max_flow b =
  let net, sink, middle = build_network b in
  let (_ : int) = max_flow net ~src:0 ~sink in
  B.outcome_of_arcs b ~flow:(F.flow net) middle

let dinic = network_solver (fun net ~src ~sink -> Dinic_flow.max_flow net ~src ~sink)
let push_relabel = network_solver Push_relabel.max_flow

let hopcroft_karp b =
  let inst = Instance.of_bipartite b in
  let r =
    Hopcroft_karp.solve_slots ~n_left:inst.Instance.n_left ~n_right:inst.n_right
      ~adj:inst.adj ~right_cap:inst.right_cap ()
  in
  {
    B.matched = r.Hopcroft_karp.size;
    assignment = r.assignment;
    right_load = r.right_load;
  }
