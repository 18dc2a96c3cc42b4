open Vod_util
module F = Flow_network

(* The instance is CSR-backed: [Csr.t] holds the edges and the
   per-right capacities, and doubles as the reusable builder: [reset] +
   [add_edge] fill it through the pending list, and [delta_rebuild]
   (the engine's per-round path) writes its rows directly.
   [dedup] memoises the sorted [int array array] view still consumed by
   the legacy solver paths, certificates and min-cost/greedy solvers. *)
type t = {
  csr : Csr.t;
  mutable dedup : int array array option; (* memoised sorted adjacency rows *)
  mutable layout : Layout.t option; (* lazily created renumbering pass *)
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
  { csr; dedup = None; layout = None }

let reset t ~n_left ~n_right ~right_cap =
  validate_shape ~who:"Bipartite.reset" ~n_left ~n_right ~right_cap;
  Csr.reset t.csr ~n_left ~n_right;
  Csr.set_right_caps t.csr right_cap;
  t.dedup <- None

let delta_rebuild t ~n_left ~right_cap ~src_of ~fill =
  let n_right = Csr.n_right t.csr in
  validate_shape ~who:"Bipartite.delta_rebuild" ~n_left ~n_right ~right_cap;
  Csr.set_right_caps t.csr right_cap;
  Csr.rebuild_rows t.csr ~n_left ~src_of ~fill;
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

type algorithm = Dinic_flow | Push_relabel_flow | Hopcroft_karp_matching

type outcome = { matched : int; assignment : int array; right_load : int array }

let outcome_of_arena t arena size =
  {
    matched = size;
    assignment = Array.sub (Arena.assignment arena) 0 (n_left t);
    right_load = Array.sub (Arena.right_load arena) 0 (n_right t);
  }

let layout_of t =
  match t.layout with
  | Some lay -> lay
  | None ->
      let lay = Layout.create () in
      t.layout <- Some lay;
      lay

let solve_in_arena ~arena ?(algorithm = Dinic_flow) ?(layout = false) t =
  let csr = csr t in
  let lay = if layout then Some (layout_of t) else None in
  let csr = match lay with Some l -> Layout.prepare l csr | None -> csr in
  let size =
    match algorithm with
    | Dinic_flow -> Dinic.solve_csr ~arena csr
    | Push_relabel_flow -> Push_relabel.solve_csr ~arena csr
    | Hopcroft_karp_matching -> Hopcroft_karp.solve_csr ~arena csr
  in
  (match lay with Some l -> Layout.commit l arena | None -> ());
  size

let solve ?arena ?algorithm ?layout t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  outcome_of_arena t arena (solve_in_arena ~arena ?algorithm ?layout t)

(* ------------------------------------------------------------------ *)
(* Legacy adj-array solver paths                                       *)
(*                                                                     *)
(* The historical implementations — an explicit [Flow_network] for the *)
(* flow algorithms and slot expansion for Hopcroft-Karp — are kept as  *)
(* independent algorithms so the vod_check oracle panel and the fuzz   *)
(* harness can diff the CSR/arena cores against them on every          *)
(* instance.                                                           *)
(* ------------------------------------------------------------------ *)

(* Flow-network encoding of Lemma 1: source -> request (cap 1),
   request -> box (unbounded), box -> sink (cap = upload slots). *)
let build_network_full t =
  let src = 0 in
  let left_base = 1 in
  let right_base = 1 + n_left t in
  let sink = 1 + n_left t + n_right t in
  let right_cap = Csr.right_cap_array t.csr in
  let adj = adjacency t in
  let arc_hint =
    (* src arcs + middle arcs + sink arcs, two arc cells each *)
    2 * (n_left t + Csr.n_edges t.csr + n_right t)
  in
  let net = F.create ~arc_hint (sink + 1) in
  let src_arcs = Array.make (max (n_left t) 1) 0 in
  for l = 0 to n_left t - 1 do
    src_arcs.(l) <- F.add_edge net ~src ~dst:(left_base + l) ~cap:1
  done;
  let middle = Array.make (max (n_left t) 1) [||] in
  for l = 0 to n_left t - 1 do
    middle.(l) <-
      Array.map
        (fun r -> F.add_edge net ~src:(left_base + l) ~dst:(right_base + r) ~cap:1)
        adj.(l)
  done;
  let sink_arcs = Array.make (max (n_right t) 1) 0 in
  for r = 0 to n_right t - 1 do
    sink_arcs.(r) <- F.add_edge net ~src:(right_base + r) ~dst:sink ~cap:right_cap.(r)
  done;
  (net, src, sink, middle, src_arcs, sink_arcs)

let build_network t =
  let net, src, sink, middle, _, _ = build_network_full t in
  (net, src, sink, middle)

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

let solve_legacy ?(algorithm = Dinic_flow) t =
  match algorithm with
  | Dinic_flow ->
      let net, src, sink, middle = build_network t in
      let (_ : int) = Dinic.max_flow net ~src ~sink in
      outcome_of_flow t net middle
  | Push_relabel_flow ->
      let net, src, sink, middle = build_network t in
      let (_ : int) = Push_relabel.max_flow net ~src ~sink in
      outcome_of_flow t net middle
  | Hopcroft_karp_matching ->
      let r =
        Hopcroft_karp.solve_slots ~n_left:(n_left t) ~n_right:(n_right t)
          ~adj:(adjacency t)
          ~right_cap:(Csr.right_cap_array t.csr |> fun a -> Array.sub a 0 (n_right t))
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

let is_feasible ?(algorithm = Dinic_flow) t =
  let o = solve ~algorithm t in
  o.matched = n_left t

type violator = { requests : int list; servers : int list; server_slots : int }

let hall_violator t =
  let net, src, sink, _middle = build_network t in
  let value = Dinic.max_flow net ~src ~sink in
  if value = n_left t then None
  else begin
    (* Source side S of the min cut.  X = requests in S; because
       request->box arcs carry flow at most 1 but have capacity 1 — we
       need them uncuttable, so recompute reachability treating middle
       arcs as uncut: a middle arc from a reachable request is only
       saturated if the request is matched, and then the box is reached
       through the reverse arc of the box->sink path...  To keep the
       certificate exact we rebuild the network with unbounded middle
       arcs. *)
    let adj = adjacency t in
    let right_cap = Csr.right_cap_array t.csr in
    let left_base = 1 in
    let right_base = 1 + n_left t in
    let sink' = 1 + n_left t + n_right t in
    let net' = F.create (sink' + 1) in
    for l = 0 to n_left t - 1 do
      ignore (F.add_edge net' ~src:0 ~dst:(left_base + l) ~cap:1)
    done;
    for l = 0 to n_left t - 1 do
      Array.iter
        (fun r ->
          ignore
            (F.add_edge net' ~src:(left_base + l) ~dst:(right_base + r)
               ~cap:F.infinite_capacity))
        adj.(l)
    done;
    for r = 0 to n_right t - 1 do
      ignore (F.add_edge net' ~src:(right_base + r) ~dst:sink' ~cap:right_cap.(r))
    done;
    let value' = Dinic.max_flow net' ~src:0 ~sink:sink' in
    assert (value' = value);
    let reachable = F.residual_reachable net' ~src:0 in
    let requests = ref [] and servers = ref [] and slots = ref 0 in
    for l = n_left t - 1 downto 0 do
      if Bitset.mem reachable (left_base + l) then requests := l :: !requests
    done;
    for r = n_right t - 1 downto 0 do
      if Bitset.mem reachable (right_base + r) then begin
        servers := r :: !servers;
        slots := !slots + right_cap.(r)
      end
    done;
    Some { requests = !requests; servers = !servers; server_slots = !slots }
  end

(* ------------------------------------------------------------------ *)
(* Warm-start incremental solving                                      *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* Observability hooks (registered once; O(1) per event recorded). *)
  let obs_reseated =
    Vod_obs.Registry.counter Vod_obs.Registry.default "matching.seats_revalidated"
  let obs_dirty = Vod_obs.Registry.counter Vod_obs.Registry.default "matching.dirty"
  let obs_fallbacks =
    Vod_obs.Registry.counter Vod_obs.Registry.default "matching.fallbacks"
  let obs_repairs =
    Vod_obs.Registry.counter Vod_obs.Registry.default "matching.incremental_solves"
  let obs_repaired = Vod_obs.Registry.counter Vod_obs.Registry.default "matching.repaired"

  type stats = {
    rounds : int;
    full_solves : int;
    incremental_solves : int;
    reseated : int;
    repaired : int;
  }

  type state = {
    algorithm : algorithm;
    fallback_threshold : float;
    mutable s_rounds : int;
    mutable s_full : int;
    mutable s_incremental : int;
    mutable s_reseated : int;
    mutable s_repaired : int;
  }

  let create ?(algorithm = Hopcroft_karp_matching) ?(fallback_threshold = 0.5) () =
    (match algorithm with
    | Hopcroft_karp_matching | Dinic_flow -> ()
    | Push_relabel_flow ->
        invalid_arg "Bipartite.Incremental.create: push-relabel has no warm-start path");
    if not (fallback_threshold >= 0.0 && fallback_threshold <= 1.0) then
      invalid_arg "Bipartite.Incremental.create: threshold outside [0, 1]";
    {
      algorithm;
      fallback_threshold;
      s_rounds = 0;
      s_full = 0;
      s_incremental = 0;
      s_reseated = 0;
      s_repaired = 0;
    }

  let stats st =
    {
      rounds = st.s_rounds;
      full_solves = st.s_full;
      incremental_solves = st.s_incremental;
      reseated = st.s_reseated;
      repaired = st.s_repaired;
    }

  (* Validate the caller's warm seats against the *current* instance:
     the previous server must still be adjacent (departures, cache
     expiry) and still within its possibly-shrunk capacity (churn,
     relay reservation changes).  The cleaned seating lands in the
     arena's [warm] slab (the solver below reads it as its warm start)
     and the per-right load scratch rides in [right_load], which every
     solver re-initialises anyway — so validation allocates nothing. *)
  let validate_seats t arena warm =
    let csr = csr t in
    let nl = Csr.n_left csr and nr = Csr.n_right csr in
    let row_start = Csr.row_start csr and col = Csr.col csr in
    let right_cap = Csr.right_cap_array csr in
    let cleaned = Arena.ints arena.Arena.warm (max nl 1) in
    let load = Arena.ints arena.Arena.right_load (max nr 1) in
    Array.fill load 0 nr 0;
    let seated = ref 0 in
    for l = 0 to nl - 1 do
      let r = warm.(l) in
      cleaned.(l) <- -1;
      if r >= 0 && r < nr && load.(r) < right_cap.(r) then begin
        let adjacent = ref false in
        let i = ref row_start.(l) in
        let stop = row_start.(l + 1) in
        while (not !adjacent) && !i < stop do
          if col.(!i) = r then adjacent := true;
          incr i
        done;
        if !adjacent then begin
          cleaned.(l) <- r;
          load.(r) <- load.(r) + 1;
          incr seated
        end
      end
    done;
    (cleaned, !seated)

  let solve st ?arena ?warm_start ?(layout = false) t =
    let arena = match arena with Some a -> a | None -> Arena.create () in
    st.s_rounds <- st.s_rounds + 1;
    (match warm_start with
    | Some ws when Array.length ws <> n_left t ->
        invalid_arg "Bipartite.Incremental.solve: warm_start length mismatch"
    | _ -> ());
    let cleaned, seated =
      Vod_obs.Span.with_ ~name:"revalidate" (fun () ->
          match warm_start with
          | None ->
              let cleaned = Arena.ints arena.Arena.warm (max (n_left t) 1) in
              Array.fill cleaned 0 (n_left t) (-1);
              (cleaned, 0)
          | Some ws -> validate_seats t arena ws)
    in
    st.s_reseated <- st.s_reseated + seated;
    Vod_obs.Registry.add obs_reseated seated;
    let dirty = n_left t - seated in
    Vod_obs.Registry.add obs_dirty dirty;
    if
      n_left t > 0
      && float_of_int dirty > st.fallback_threshold *. float_of_int (n_left t)
    then begin
      st.s_full <- st.s_full + 1;
      Vod_obs.Registry.incr obs_fallbacks;
      Vod_obs.Span.with_ ~name:"fallback" (fun () ->
          solve ~arena ~algorithm:st.algorithm ~layout t)
    end
    else begin
      st.s_incremental <- st.s_incremental + 1;
      Vod_obs.Registry.incr obs_repairs;
      let outcome =
        Vod_obs.Span.with_ ~name:"repair" (fun () ->
            let lay = if layout then Some (layout_of t) else None in
            let instance =
              match lay with Some l -> Layout.prepare l (csr t) | None -> csr t
            in
            let warm =
              match lay with Some l -> Layout.project_warm l cleaned | None -> cleaned
            in
            let size =
              match st.algorithm with
              | Hopcroft_karp_matching ->
                  Hopcroft_karp.solve_csr ~warm_start:warm ~arena instance
              | Dinic_flow -> Dinic.solve_csr ~warm_start:warm ~arena instance
              | Push_relabel_flow -> assert false
            in
            (match lay with Some l -> Layout.commit l arena | None -> ());
            outcome_of_arena t arena size)
      in
      st.s_repaired <- st.s_repaired + (outcome.matched - seated);
      Vod_obs.Registry.add obs_repaired (outcome.matched - seated);
      outcome
    end
end

let solve_incremental st ?arena ?warm_start ?layout t =
  Incremental.solve st ?arena ?warm_start ?layout t
