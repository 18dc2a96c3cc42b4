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
   seeds the matching and leaves the lefts it could not seat at the
   head of [queue], then each phase levels outward from them, a layer
   at a time, and stops at the first layer that holds a right with a
   free seat.  [level] is versioned by a per-phase [base] offset
   (entries below [base] are unvisited, for lefts and rights alike),
   and the current-arc pointers are re-armed at visit time, so
   per-phase costs track the visited region instead of O(n).  All
   scratch lives in the arena. *)
let reserve ~arena ~n_left:nl ~n_right:nr ~n_edges:m =
  if nl < 0 || nr < 0 || m < 0 then invalid_arg "Dinic.reserve: negative size";
  ignore (Arena.ints arena.Arena.assignment (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.matched_edge (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.right_load (max nr 1) : int array);
  ignore (Arena.ints arena.Arena.level (max (nl + nr) 1) : int array);
  ignore (Arena.ints arena.Arena.queue (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.right_queue (max nr 1) : int array);
  ignore (Arena.ints arena.Arena.it_left (max nl 1) : int array);
  ignore (Arena.ints arena.Arena.it_right (max nr 1) : int array);
  ignore (Arena.ints arena.Arena.t_row_start (nr + 1) : int array);
  ignore (Arena.ints arena.Arena.t_packed (max m 1) : int array)

let solve_csr ~arena csr =
  let nl = Csr.n_left csr and nr = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let cap = Csr.right_cap_array csr in
  let m = Csr.n_edges csr in
  if nl lor m >= 1 lsl 31 then invalid_arg "Dinic.solve_csr: instance too large to pack";
  reserve ~arena ~n_left:nl ~n_right:nr ~n_edges:m;
  let matched_edge = arena.Arena.matched_edge.buf and load = arena.Arena.right_load.buf in
  let level = arena.Arena.level.buf and queue = arena.Arena.queue.buf in
  let right_queue = arena.Arena.right_queue.buf in
  let it_left = arena.Arena.it_left.buf and it_right = arena.Arena.it_right.buf in
  let t_row_start = arena.Arena.t_row_start.buf and t_packed = arena.Arena.t_packed.buf in
  let packed_mask = (1 lsl 31) - 1 in
  Array.fill load 0 nr 0;
  (* Greedy first-fit: identical to what the first phase would do (every
     free left takes its first edge to a right with a free seat, and no
     occupant can be displaced yet), at early-row-break cost.  The lefts
     it leaves free go to the head of [queue], ascending: the seeds of
     every phase below, which the augmenting passes compact in place. *)
  let n_free = ref 0 in
  for l = 0 to nl - 1 do
    matched_edge.(l) <- -1;
    let i = ref row_start.(l) in
    let stop = row_start.(l + 1) in
    while matched_edge.(l) = -1 && !i < stop do
      let r = col.(!i) in
      if load.(r) < cap.(r) then begin
        matched_edge.(l) <- !i;
        load.(r) <- load.(r) + 1
      end;
      incr i
    done;
    if matched_edge.(l) = -1 then begin
      queue.(!n_free) <- l;
      incr n_free
    end
  done;
  (* The phases below read the transpose and [level] only when greedy
     left a request free.  Above the upload threshold it seats every
     one: a round pays for the augmenting machinery only when
     feasibility is in question. *)
  if !n_free > 0 then begin
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
    Array.fill level 0 (nl + nr) 0;
    let rec dfs_left l =
      let res = ref false in
      while (not !res) && it_left.(l) < row_start.(l + 1) do
        let e = it_left.(l) in
        let r = col.(e) in
        if
          e <> matched_edge.(l) && level.(nl + r) = level.(l) + 1 && dfs_right r
        then begin
          matched_edge.(l) <- e;
          res := true
        end
        else it_left.(l) <- it_left.(l) + 1
      done;
      !res
    and dfs_right r =
      if load.(r) < cap.(r) then begin
        load.(r) <- load.(r) + 1;
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
    let base = ref 1 and found = ref true in
    while !found && !n_free > 0 do
      (* BFS from the free lefts.  Lefts levelled by this phase are
         appended to [queue] behind the seeds, rights to [right_queue];
         a vertex is visited iff its level is at least [base]. *)
      for q = 0 to !n_free - 1 do
        let l = queue.(q) in
        level.(l) <- !base;
        it_left.(l) <- row_start.(l)
      done;
      let tail = ref !n_free and right_tail = ref 0 in
      let layer_start = ref 0 and d = ref 0 in
      found := false;
      while (not !found) && !layer_start < !tail do
        let layer_end = !tail and right_start = !right_tail in
        (* rights of this layer sit at node distance 2d+1 from the free
           lefts; the whole layer is labelled, and its current-arc
           pointers armed, before the free-seat test ends the phase *)
        let rlevel = !base + (2 * !d) + 1 in
        for qi = !layer_start to layer_end - 1 do
          let lq = queue.(qi) in
          let me = matched_edge.(lq) in
          for i = row_start.(lq) to row_start.(lq + 1) - 1 do
            let r = col.(i) in
            if i <> me && level.(nl + r) < !base then begin
              level.(nl + r) <- rlevel;
              it_right.(r) <- t_row_start.(r);
              right_queue.(!right_tail) <- r;
              incr right_tail;
              if load.(r) < cap.(r) then found := true
            end
          done
        done;
        if not !found then begin
          (* reverse residual arcs point to the current occupants *)
          for ri = right_start to !right_tail - 1 do
            let r = right_queue.(ri) in
            for j = t_row_start.(r) to t_row_start.(r + 1) - 1 do
              let p = t_packed.(j) in
              let l' = p lsr 31 in
              if matched_edge.(l') = p land packed_mask && level.(l') < !base then begin
                level.(l') <- rlevel + 1;
                it_left.(l') <- row_start.(l');
                queue.(!tail) <- l';
                incr tail
              end
            done
          done;
          layer_start := layer_end;
          incr d
        end
      done;
      arena.Arena.reached <- !tail;
      arena.Arena.reached_right <- !right_tail;
      if !found then begin
        Vod_obs.Registry.incr obs_phases;
        (* implicit levels start at the free lefts, so the full
           network's src->..->sink hop count is the right's level + 2 *)
        Vod_obs.Registry.observe obs_path_len ((2 * !d) + 3);
        let kept = ref 0 in
        for q = 0 to !n_free - 1 do
          let l = queue.(q) in
          if dfs_left l then Vod_obs.Registry.incr obs_paths
          else begin
            queue.(!kept) <- l;
            incr kept
          end
        done;
        n_free := !kept;
        (* phase values reach [base + 2d + 2 <= base + nl + nr + 2] *)
        base := !base + nl + nr + 3
      end
    done
  end;
  let assignment = Arena.ints arena.Arena.assignment (max nl 1) in
  for l = 0 to nl - 1 do
    assignment.(l) <- (if matched_edge.(l) = -1 then -1 else col.(matched_edge.(l)))
  done;
  nl - !n_free
