open Vod_util

type result = { size : int; assignment : int array; right_load : int array }

let infinity_dist = max_int

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_phases = Vod_obs.Registry.counter Vod_obs.Registry.default "hk.bfs_phases"
let obs_paths = Vod_obs.Registry.counter Vod_obs.Registry.default "hk.augmenting_paths"
let obs_path_len = Vod_obs.Registry.histogram Vod_obs.Registry.default "hk.path_length"

(* Flat CSR core.  Right capacities are handled with per-right seat
   counters instead of slot expansion: the seats taken on right [r] sit
   compactly in [seats.(seat_start.(r)) .. seats.(seat_start.(r) +
   fill.(r) - 1)] (each cell holding the occupying left), so a free seat
   is an O(1) counter test and relaxing the occupants of [r] scans
   exactly [fill.(r)] cells.  The compaction invariant holds because a
   seat, once taken, is only ever transferred (displacement swaps the
   occupant in place), never vacated, within one solve.

   The BFS is word-parallel and layered: each layer ORs its rows into a
   right-side frontier bitset (one OR per edge, no membership branch),
   strips already-visited rights with one and-not sweep, probes for a
   free seat with one intersection sweep, and stops at the first layer
   holding one — the classic Hopcroft-Karp shortest-phase rule, so each
   phase augments only along shortest paths.  [dist] is versioned by a
   per-phase [base] offset (values below [base] mean unvisited), which
   replaces the O(n_left) distance fill each phase with one addition.
   All scratch lives in the arena: steady-state calls allocate
   nothing. *)
let solve_csr ~arena csr =
  let nl = Csr.n_left csr and nr = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let cap = Csr.right_cap_array csr in
  let seat_start = Arena.ints arena.Arena.seat_start (nr + 1) in
  seat_start.(0) <- 0;
  for r = 0 to nr - 1 do
    seat_start.(r + 1) <- seat_start.(r) + cap.(r)
  done;
  let match_left = Arena.ints arena.Arena.assignment (max nl 1) in
  let fill = Arena.ints arena.Arena.right_load (max nr 1) in
  let seats = Arena.ints arena.Arena.seats (max seat_start.(nr) 1) in
  let dist = Arena.ints arena.Arena.hk_dist (max nl 1) in
  let queue = Arena.ints arena.Arena.queue (max nl 1) in
  let free_left = Arena.bits arena.Arena.free_left nl in
  let free_right = Arena.bits arena.Arena.free_right nr in
  let frontier = Arena.bits arena.Arena.frontier nr in
  let visited = Arena.bits arena.Arena.visited_right nr in
  Array.fill match_left 0 nl (-1);
  Array.fill fill 0 nr 0;
  (* versioned dist: 0 everywhere is "never visited" for every phase *)
  Array.fill dist 0 nl 0;
  Bitset.set_prefix free_left nl;
  Bitset.clear free_right;
  for r = 0 to nr - 1 do
    if cap.(r) > 0 then Bitset.unsafe_add free_right r
  done;
  let size = ref 0 in
  (* seat [l] on [r]; caller guarantees a free seat and counts the size *)
  let take_seat l r =
    seats.(seat_start.(r) + fill.(r)) <- l;
    let f = fill.(r) + 1 in
    fill.(r) <- f;
    if f = cap.(r) then Bitset.unsafe_remove free_right r;
    match_left.(l) <- r
  in
  (* Greedy first-fit pass: each free request takes the first adjacent
     free seat.  Identical to what the first phase would do (depth-0
     roots take the first free seat and never displace, because every
     dist is equal), but with an early row break instead of a full
     frontier build — most requests match here, so the phases below
     start from a near-maximum matching. *)
  let l = ref (Bitset.next_set_bit free_left 0) in
  while !l >= 0 do
    let li = !l in
    let i = ref row_start.(li) in
    let stop = row_start.(li + 1) in
    let got = ref false in
    while (not !got) && !i < stop do
      let r = col.(!i) in
      if Bitset.unsafe_mem free_right r then begin
        take_seat li r;
        Bitset.unsafe_remove free_left li;
        incr size;
        got := true
      end;
      incr i
    done;
    l := Bitset.next_set_bit free_left (li + 1)
  done;
  let fw = Bitset.words frontier in
  let wsh = Bitset.word_shift and bmask = Bitset.bit_mask in
  let base = ref 1 in
  let bfs () =
    Bitset.clear visited;
    let tail = ref 0 in
    Bitset.iter
      (fun l ->
        dist.(l) <- !base;
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
          for i = row_start.(lq) to row_start.(lq + 1) - 1 do
            let r = Array.unsafe_get col i in
            let w = r lsr wsh in
            Array.unsafe_set fw w (Array.unsafe_get fw w lor (1 lsl (r land bmask)))
          done
        done;
        Bitset.andnot_into ~dst:frontier visited;
        if Bitset.intersects frontier free_right then found := true
        else begin
          Bitset.union_into ~dst:visited frontier;
          let dnext = !base + !d + 1 in
          Bitset.iter
            (fun r ->
              let stop = seat_start.(r) + fill.(r) in
              for s = seat_start.(r) to stop - 1 do
                let l' = Array.unsafe_get seats s in
                if dist.(l') < !base then begin
                  dist.(l') <- dnext;
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
    !found
  in
  (* depth of the frame that found a free seat, in left-vertex hops:
     the augmenting path has [2 * depth + 1] edges *)
  let found_depth = ref 0 in
  let rec try_augment l depth =
    let success = ref false in
    let i = ref row_start.(l) in
    let stop_i = row_start.(l + 1) in
    while (not !success) && !i < stop_i do
      let r = col.(!i) in
      if Bitset.unsafe_mem free_right r then begin
        found_depth := depth;
        take_seat l r;
        success := true
      end
      else begin
        let s = ref seat_start.(r) in
        (* [fill.(r)] is pinned at [cap.(r)] here, so the segment bound
           cannot move under the recursion *)
        let stop_s = seat_start.(r) + fill.(r) in
        while (not !success) && !s < stop_s do
          let owner = seats.(!s) in
          if dist.(owner) = dist.(l) + 1 && try_augment owner (depth + 1) then begin
            seats.(!s) <- l;
            match_left.(l) <- r;
            success := true
          end;
          incr s
        done
      end;
      incr i
    done;
    (* dead mark: 0 is below every live [base], so the entry reads as
       unvisited once the next phase bumps the version *)
    if not !success then dist.(l) <- 0;
    !success
  in
  while bfs () do
    Vod_obs.Registry.incr obs_phases;
    let l = ref (Bitset.next_set_bit free_left 0) in
    while !l >= 0 do
      let li = !l in
      if try_augment li 0 then begin
        Bitset.unsafe_remove free_left li;
        incr size;
        Vod_obs.Registry.incr obs_paths;
        Vod_obs.Registry.observe obs_path_len ((2 * !found_depth) + 1)
      end;
      l := Bitset.next_set_bit free_left (li + 1)
    done;
    (* phase values reach [base + d + 1 <= base + nl + 1]; the bump puts
       the next phase's [base] above all of them *)
    base := !base + nl + 2
  done;
  !size

(* Legacy path: right vertices expanded into unit "slots" (one per
   capacity unit), reducing the capacitated problem to textbook
   Hopcroft-Karp.  Slot ids for right [r] are [slot_start.(r) ..
   slot_start.(r+1) - 1].  Kept as an independent implementation so the
   vod_check oracle panel can diff the CSR core against it. *)
let solve_slots ~n_left ~n_right ~adj ~right_cap () =
  if Array.length adj <> n_left then invalid_arg "Hopcroft_karp.solve: adj length";
  if Array.length right_cap <> n_right then
    invalid_arg "Hopcroft_karp.solve: right_cap length";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Hopcroft_karp.solve: negative cap")
    right_cap;
  Array.iter
    (Array.iter (fun r ->
         if r < 0 || r >= n_right then invalid_arg "Hopcroft_karp.solve: adj out of range"))
    adj;
  let slot_start = Array.make (n_right + 1) 0 in
  for r = 0 to n_right - 1 do
    slot_start.(r + 1) <- slot_start.(r) + right_cap.(r)
  done;
  let n_slots = slot_start.(n_right) in
  let slot_right = Array.make (max n_slots 1) 0 in
  for r = 0 to n_right - 1 do
    for s = slot_start.(r) to slot_start.(r + 1) - 1 do
      slot_right.(s) <- r
    done
  done;
  let match_left = Array.make n_left (-1) (* left -> slot *) in
  let match_slot = Array.make (max n_slots 1) (-1) (* slot -> left *) in
  let size = ref 0 in
  let dist = Array.make n_left infinity_dist in
  let queue = Queue.create () in
  let iter_slots l f =
    Array.iter
      (fun r ->
        for s = slot_start.(r) to slot_start.(r + 1) - 1 do
          f s
        done)
      adj.(l)
  in
  let bfs () =
    Queue.clear queue;
    Array.fill dist 0 n_left infinity_dist;
    for l = 0 to n_left - 1 do
      if match_left.(l) = -1 then begin
        dist.(l) <- 0;
        Queue.add l queue
      end
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      iter_slots l (fun s ->
          match match_slot.(s) with
          | -1 -> found := true
          | l' ->
              if dist.(l') = infinity_dist then begin
                dist.(l') <- dist.(l) + 1;
                Queue.add l' queue
              end)
    done;
    !found
  in
  let found_depth = ref 0 in
  let rec try_augment l depth =
    let success = ref false in
    let arcs = adj.(l) in
    let i = ref 0 in
    while (not !success) && !i < Array.length arcs do
      let r = arcs.(!i) in
      let s = ref slot_start.(r) in
      while (not !success) && !s < slot_start.(r + 1) do
        let owner = match_slot.(!s) in
        if
          (if owner = -1 then begin
             found_depth := depth;
             true
           end
           else dist.(owner) = dist.(l) + 1 && try_augment owner (depth + 1))
        then begin
          match_slot.(!s) <- l;
          match_left.(l) <- !s;
          success := true
        end;
        incr s
      done;
      incr i
    done;
    if not !success then dist.(l) <- infinity_dist;
    !success
  in
  while bfs () do
    Vod_obs.Registry.incr obs_phases;
    for l = 0 to n_left - 1 do
      if match_left.(l) = -1 && try_augment l 0 then begin
        incr size;
        Vod_obs.Registry.incr obs_paths;
        Vod_obs.Registry.observe obs_path_len ((2 * !found_depth) + 1)
      end
    done
  done;
  let assignment = Array.map (fun s -> if s = -1 then -1 else slot_right.(s)) match_left in
  let right_load = Array.make n_right 0 in
  Array.iter (fun r -> if r >= 0 then right_load.(r) <- right_load.(r) + 1) assignment;
  { size = !size; assignment; right_load }

(* Thin shim over the CSR core: same signature and validation as the
   historical entry point, paying one instance + arena allocation. *)
let solve ~n_left ~n_right ~adj ~right_cap () =
  if Array.length adj <> n_left then invalid_arg "Hopcroft_karp.solve: adj length";
  if Array.length right_cap <> n_right then
    invalid_arg "Hopcroft_karp.solve: right_cap length";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Hopcroft_karp.solve: negative cap")
    right_cap;
  Array.iter
    (Array.iter (fun r ->
         if r < 0 || r >= n_right then invalid_arg "Hopcroft_karp.solve: adj out of range"))
    adj;
  let csr = Csr.of_adjacency ~right_cap ~n_right adj in
  let arena = Arena.create () in
  let size = solve_csr ~arena csr in
  {
    size;
    assignment = Array.sub (Arena.assignment arena) 0 n_left;
    right_load = Array.sub (Arena.right_load arena) 0 n_right;
  }
