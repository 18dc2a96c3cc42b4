open Vod_util

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_phases = Vod_obs.Registry.counter Vod_obs.Registry.default "dinic.bfs_phases"
let obs_paths = Vod_obs.Registry.counter Vod_obs.Registry.default "dinic.augmenting_paths"
let obs_path_len = Vod_obs.Registry.histogram Vod_obs.Registry.default "dinic.path_length"

(* CSR bipartite specialisation.  The four-layer network
   (src -> lefts cap 1 -> rights via the CSR edges cap 1 -> sink with
   cap right_cap) is kept implicit: a left's unit is represented by the
   CSR edge id carrying it ([matched_edge], -1 when free at the source)
   and the sink arcs by per-right load counters.  Reverse-residual
   traversal (right -> matched occupant) runs over a CSR transpose built
   in the arena by counting sort, only when greedy first-fit leaves a
   request free; each transpose entry packs [(left lsl 31) lor edge_id]
   into one word, so the occupant sweep loads one cell where it used to
   load two.

   The BFS runs Hopcroft-Karp-style phases: a greedy first-fit pass
   seeds the matching, then layered word-parallel phases build the
   right-side frontier as a bitset, probe it against the free-seat set
   and stop at the first layer that can reach the sink.  [level] is
   versioned by a per-phase [base] offset (entries below [base] are
   unvisited), and the current-arc pointers are re-armed at visit time,
   so per-phase costs track the visited region instead of O(n).  All
   scratch lives in the arena: steady-state calls allocate nothing. *)
let reserve ~arena ~n_left:nl ~n_right:nr ~n_edges:m =
  if nl < 0 || nr < 0 || m < 0 then invalid_arg "Dinic.reserve: negative size";
  ignore (Arena.ints arena.Arena.assignment (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.matched_edge (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.right_load (max nr 1) : int array);
  ignore (Arena.ints arena.Arena.level (max (nl + nr) 1) : int array);
  ignore (Arena.ints arena.Arena.queue (max (nl + nr) 1) : int array);
  ignore (Arena.ints arena.Arena.it_left (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.it_right (max nr 1) : int array);
  ignore (Arena.ints arena.Arena.t_row_start (nr + 1) : int array);
  ignore (Arena.ints arena.Arena.t_packed (max m 1) : int array);
  ignore (Arena.bits arena.Arena.free_left nl : Bitset.t);
  ignore (Arena.bits arena.Arena.free_right nr : Bitset.t);
  ignore (Arena.bits arena.Arena.frontier nr : Bitset.t);
  ignore (Arena.bits arena.Arena.visited_right nr : Bitset.t)

let solve_csr ~arena csr =
  let nl = Csr.n_left csr and nr = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let cap = Csr.right_cap_array csr in
  let m = Csr.n_edges csr in
  if nl lor m >= 1 lsl 31 then invalid_arg "Dinic.solve_csr: instance too large to pack";
  reserve ~arena ~n_left:nl ~n_right:nr ~n_edges:m;
  let matched_edge = arena.Arena.matched_edge.buf and load = arena.Arena.right_load.buf in
  let level = arena.Arena.level.buf and queue = arena.Arena.queue.buf in
  let it_left = arena.Arena.it_left.buf and it_right = arena.Arena.it_right.buf in
  let t_row_start = arena.Arena.t_row_start.buf and t_packed = arena.Arena.t_packed.buf in
  let free_left = arena.Arena.free_left.bits and free_right = arena.Arena.free_right.bits in
  let frontier = arena.Arena.frontier.bits and visited = arena.Arena.visited_right.bits in
  let packed_mask = (1 lsl 31) - 1 in
  Array.fill matched_edge 0 nl (-1);
  Bitset.set_prefix free_left nl;
  Bitset.clear free_right;
  for r = 0 to nr - 1 do
    load.(r) <- 0;
    if cap.(r) > 0 then Bitset.unsafe_add free_right r
  done;
  let size = ref 0 in
  (* seat one unit on [r]; caller guarantees a free seat *)
  let take_seat r =
    let f = load.(r) + 1 in
    load.(r) <- f;
    if f = cap.(r) then Bitset.unsafe_remove free_right r
  in
  (* Greedy first-fit: identical to what the first phase would do (every
     free left takes its first edge to a right with a free seat, and no
     occupant can be displaced yet), at early-row-break cost. *)
  let l = ref (Bitset.next_set_bit free_left 0) in
  while !l >= 0 do
    let li = !l in
    let i = ref row_start.(li) in
    let stop = row_start.(li + 1) in
    while matched_edge.(li) = -1 && !i < stop do
      let r = col.(!i) in
      if Bitset.unsafe_mem free_right r then begin
        matched_edge.(li) <- !i;
        take_seat r;
        Bitset.unsafe_remove free_left li;
        incr size
      end;
      incr i
    done;
    l := Bitset.next_set_bit free_left (li + 1)
  done;
  (* The phases below read the transpose and [level] only when greedy
     left a request free.  Above the upload threshold it seats every
     one, and the first [bfs ()] returns at once: a round pays for the
     augmenting machinery only when feasibility is in question. *)
  if !size < nl then begin
    (* transpose: packed (left, edge id) per right, via counting sort *)
    Array.fill t_row_start 0 (nr + 1) 0;
    for e = 0 to m - 1 do
      let r = col.(e) in
      t_row_start.(r + 1) <- t_row_start.(r + 1) + 1
    done;
    for r = 0 to nr - 1 do
      t_row_start.(r + 1) <- t_row_start.(r + 1) + t_row_start.(r);
      it_right.(r) <- t_row_start.(r)
    done;
    for l = 0 to nl - 1 do
      for e = row_start.(l) to row_start.(l + 1) - 1 do
        let r = col.(e) in
        t_packed.(it_right.(r)) <- (l lsl 31) lor e;
        it_right.(r) <- it_right.(r) + 1
      done
    done;
    (* versioned level: 0 everywhere is "never visited" for every phase *)
    Array.fill level 0 (nl + nr) 0
  end;
  let fw = Bitset.words frontier in
  let wsh = Bitset.word_shift and bmask = Bitset.bit_mask in
  let base = ref 1 in
  (* sink distance of the phase's level graph, for the path-length
     histogram: implicit levels start at the free lefts, so the full
     network's src->..->sink hop count is the right's level + 2 *)
  let sink_level = ref 0 in
  let bfs () =
    Bitset.clear visited;
    let tail = ref 0 in
    Bitset.iter
      (fun l ->
        level.(l) <- !base;
        it_left.(l) <- row_start.(l);
        queue.(!tail) <- l;
        incr tail)
      free_left;
    let found = ref false in
    let exhausted = ref false in
    let layer_start = ref 0 in
    let d = ref 0 in
    while (not !found) && not !exhausted do
      let layer_end = !tail in
      if !layer_start >= layer_end then exhausted := true
      else begin
        Bitset.clear frontier;
        for qi = !layer_start to layer_end - 1 do
          let lq = Array.unsafe_get queue qi in
          let me = matched_edge.(lq) in
          for i = row_start.(lq) to row_start.(lq + 1) - 1 do
            if i <> me then begin
              let r = Array.unsafe_get col i in
              let w = r lsr wsh in
              Array.unsafe_set fw w (Array.unsafe_get fw w lor (1 lsl (r land bmask)))
            end
          done
        done;
        Bitset.andnot_into ~dst:frontier visited;
        found := Bitset.intersects frontier free_right;
        (* rights of this layer sit at node distance 2d+1 from the free
           lefts; arm their level and current-arc pointer at visit time *)
        let rlevel = !base + (2 * !d) + 1 in
        if !found then begin
          sink_level := (2 * !d) + 1;
          Bitset.iter
            (fun r ->
              level.(nl + r) <- rlevel;
              it_right.(r) <- t_row_start.(r))
            frontier
        end
        else begin
          Bitset.union_into ~dst:visited frontier;
          Bitset.iter
            (fun r ->
              level.(nl + r) <- rlevel;
              it_right.(r) <- t_row_start.(r);
              (* reverse residual arcs point to the current occupants *)
              for j = t_row_start.(r) to t_row_start.(r + 1) - 1 do
                let p = Array.unsafe_get t_packed j in
                let l' = p lsr 31 in
                if matched_edge.(l') = p land packed_mask && level.(l') < !base then begin
                  level.(l') <- rlevel + 1;
                  it_left.(l') <- row_start.(l');
                  queue.(!tail) <- l';
                  incr tail
                end
              done)
            frontier;
          layer_start := layer_end;
          incr d
        end
      end
    done;
    arena.Arena.reached <- !tail;
    !found
  in
  let rec dfs_left l =
    let res = ref false in
    while (not !res) && it_left.(l) < row_start.(l + 1) do
      let e = it_left.(l) in
      let r = col.(e) in
      if e <> matched_edge.(l) && level.(nl + r) = level.(l) + 1 && dfs_right r then begin
        matched_edge.(l) <- e;
        res := true
      end
      else it_left.(l) <- it_left.(l) + 1
    done;
    !res
  and dfs_right r =
    if load.(r) < cap.(r) then begin
      take_seat r;
      true
    end
    else begin
      let res = ref false in
      while (not !res) && it_right.(r) < t_row_start.(r + 1) do
        let p = t_packed.(it_right.(r)) in
        let l' = p lsr 31 in
        if
          matched_edge.(l') = p land packed_mask
          && level.(l') = level.(nl + r) + 1
          && dfs_left l'
        then
          (* l' rerouted its unit ([matched_edge.(l')] changed inside
             [dfs_left]); the seat it held on [r] transfers to the
             caller's unit, so [load.(r)] is unchanged *)
          res := true
        else it_right.(r) <- it_right.(r) + 1
      done;
      !res
    end
  in
  while bfs () do
    Vod_obs.Registry.incr obs_phases;
    Vod_obs.Registry.observe obs_path_len (!sink_level + 2);
    let l = ref (Bitset.next_set_bit free_left 0) in
    while !l >= 0 do
      let li = !l in
      if dfs_left li then begin
        Bitset.unsafe_remove free_left li;
        incr size;
        Vod_obs.Registry.incr obs_paths
      end;
      l := Bitset.next_set_bit free_left (li + 1)
    done;
    (* phase values reach [base + 2d + 2 <= base + nl + nr + 2] *)
    base := !base + nl + nr + 3
  done;
  let assignment = Arena.ints arena.Arena.assignment (max nl 1) in
  for l = 0 to nl - 1 do
    assignment.(l) <- (if matched_edge.(l) = -1 then -1 else col.(matched_edge.(l)))
  done;
  !size
