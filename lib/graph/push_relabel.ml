module F = Flow_network

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_pushes = Vod_obs.Registry.counter Vod_obs.Registry.default "pr.pushes"
let obs_relabels = Vod_obs.Registry.counter Vod_obs.Registry.default "pr.relabels"

let max_flow net ~src ~sink =
  let n = F.node_count net in
  if src < 0 || src >= n || sink < 0 || sink >= n then
    invalid_arg "Push_relabel.max_flow: endpoint out of range";
  if src = sink then invalid_arg "Push_relabel.max_flow: src = sink";
  let excess = Array.make n 0 in
  let height = Array.make n 0 in
  let height_count = Array.make ((2 * n) + 1) 0 in
  let adjacency = Array.make n [||] in
  for v = 0 to n - 1 do
    let arcs = ref [] in
    F.iter_arcs_from net v (fun a -> arcs := a :: !arcs);
    adjacency.(v) <- Array.of_list !arcs
  done;
  let it = Array.make n 0 in
  let active = Queue.create () in
  let in_queue = Array.make n false in
  let enqueue v =
    if (not in_queue.(v)) && v <> src && v <> sink && excess.(v) > 0 then begin
      in_queue.(v) <- true;
      Queue.add v active
    end
  in
  height.(src) <- n;
  height_count.(0) <- n - 1;
  height_count.(n) <- 1;
  (* Saturate all source arcs. *)
  Array.iter
    (fun a ->
      let r = F.residual net a in
      if r > 0 then begin
        F.push net a r;
        excess.(F.arc_dst net a) <- excess.(F.arc_dst net a) + r;
        excess.(src) <- excess.(src) - r
      end)
    adjacency.(src);
  for v = 0 to n - 1 do
    enqueue v
  done;
  let relabel v =
    (* Gap heuristic: if v's old height level empties, every node above it
       is unreachable from the sink and can jump to n+1. *)
    Vod_obs.Registry.incr obs_relabels;
    let old_height = height.(v) in
    let min_height = ref ((2 * n) + 1) in
    Array.iter
      (fun a ->
        if F.residual net a > 0 then
          min_height := min !min_height (height.(F.arc_dst net a) + 1))
      adjacency.(v);
    let new_height = if !min_height > 2 * n then 2 * n else !min_height in
    height_count.(old_height) <- height_count.(old_height) - 1;
    height.(v) <- new_height;
    height_count.(new_height) <- height_count.(new_height) + 1;
    if height_count.(old_height) = 0 && old_height < n then
      for w = 0 to n - 1 do
        if w <> src && height.(w) > old_height && height.(w) <= n then begin
          height_count.(height.(w)) <- height_count.(height.(w)) - 1;
          height.(w) <- n + 1;
          height_count.(n + 1) <- height_count.(n + 1) + 1
        end
      done;
    it.(v) <- 0
  in
  let discharge v =
    while excess.(v) > 0 do
      if it.(v) = Array.length adjacency.(v) then relabel v
      else begin
        let a = adjacency.(v).(it.(v)) in
        let w = F.arc_dst net a in
        let r = F.residual net a in
        if r > 0 && height.(v) = height.(w) + 1 then begin
          Vod_obs.Registry.incr obs_pushes;
          let delta = min excess.(v) r in
          F.push net a delta;
          excess.(v) <- excess.(v) - delta;
          excess.(w) <- excess.(w) + delta;
          enqueue w
        end
        else it.(v) <- it.(v) + 1
      end
    done
  in
  while not (Queue.is_empty active) do
    let v = Queue.pop active in
    in_queue.(v) <- false;
    discharge v
  done;
  excess.(sink)
