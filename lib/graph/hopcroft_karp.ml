type result = { size : int; assignment : int array; right_load : int array }

let infinity_dist = max_int

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_phases = Vod_obs.Registry.counter Vod_obs.Registry.default "hk.bfs_phases"
let obs_paths = Vod_obs.Registry.counter Vod_obs.Registry.default "hk.augmenting_paths"
let obs_path_len = Vod_obs.Registry.histogram Vod_obs.Registry.default "hk.path_length"

(* Right vertices expanded into unit "slots" (one per capacity unit),
   reducing the capacitated problem to textbook Hopcroft-Karp.  Slot ids
   for right [r] are [slot_start.(r) .. slot_start.(r+1) - 1].  Kept as
   an independent implementation so the vod_check oracle panel can diff
   the engine's Dinic core against it. *)
let solve_slots ~n_left ~n_right ~adj ~right_cap () =
  if Array.length adj <> n_left then
    invalid_arg "Hopcroft_karp.solve_slots: adj length";
  if Array.length right_cap <> n_right then
    invalid_arg "Hopcroft_karp.solve_slots: right_cap length";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Hopcroft_karp.solve_slots: negative cap")
    right_cap;
  Array.iter
    (Array.iter (fun r ->
         if r < 0 || r >= n_right then
           invalid_arg "Hopcroft_karp.solve_slots: adj out of range"))
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
