open Vod_util

type policy = In_order | Rarest_first | Random_order

type config = {
  n : int;
  pieces : int;
  seeds : int;
  slots : int;
  want : int;
  policy : policy;
}

type t = {
  cfg : config;
  mutable now : int;
  has : Bitset.t array; (* box -> pieces held *)
  arrival : int array array; (* box -> piece -> round received, -1 *)
  joined_at : int array; (* -1 = not participating *)
  holders : int array; (* piece -> number of boxes holding it *)
}

let create cfg =
  if cfg.n < 2 then invalid_arg "Piece_swarm.create: need at least two boxes";
  if cfg.pieces < 1 then invalid_arg "Piece_swarm.create: need at least one piece";
  if cfg.seeds < 1 || cfg.seeds >= cfg.n then
    invalid_arg "Piece_swarm.create: seeds must be in [1, n)";
  if cfg.slots < 1 then invalid_arg "Piece_swarm.create: slots must be >= 1";
  if cfg.want < 1 then invalid_arg "Piece_swarm.create: want must be >= 1";
  let has = Array.init cfg.n (fun _ -> Bitset.create cfg.pieces) in
  let arrival = Array.init cfg.n (fun _ -> Array.make cfg.pieces (-1)) in
  let joined_at = Array.make cfg.n (-1) in
  for s = 0 to cfg.seeds - 1 do
    joined_at.(s) <- 0;
    for p = 0 to cfg.pieces - 1 do
      Bitset.add has.(s) p;
      arrival.(s).(p) <- 0
    done
  done;
  let holders = Array.make cfg.pieces cfg.seeds in
  { cfg; now = 0; has; arrival; joined_at; holders }

let join t b =
  if b < 0 || b >= t.cfg.n then invalid_arg "Piece_swarm.join: box out of range";
  if b < t.cfg.seeds then invalid_arg "Piece_swarm.join: box is a seed";
  if t.joined_at.(b) >= 0 then invalid_arg "Piece_swarm.join: already joined";
  t.joined_at.(b) <- t.now

(* the pieces box [b] asks for this round, by policy *)
let wanted g t b =
  let missing = ref [] in
  for p = t.cfg.pieces - 1 downto 0 do
    if not (Bitset.mem t.has.(b) p) then missing := p :: !missing
  done;
  let missing = !missing in
  let take k l =
    let rec go k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest
    in
    go k l
  in
  match t.cfg.policy with
  | In_order -> take t.cfg.want missing
  | Rarest_first ->
      let ranked =
        List.map (fun p -> (t.holders.(p), p)) missing |> List.sort compare
      in
      take t.cfg.want (List.map snd ranked)
  | Random_order ->
      let arr = Array.of_list missing in
      Sample.shuffle g arr;
      take t.cfg.want (Array.to_list arr)

let step g t =
  t.now <- t.now + 1;
  (* collect this round's (downloader, piece) wants *)
  let wants = Vec.create () in
  for b = 0 to t.cfg.n - 1 do
    if t.joined_at.(b) >= 0 && b >= t.cfg.seeds then
      List.iter (fun p -> Vec.push wants (b, p)) (wanted g t b)
  done;
  let n_left = Vec.length wants in
  if n_left = 0 then 0
  else begin
    (* matching wants to holders' upload slots, as in the main engine *)
    let right_cap =
      Array.init t.cfg.n (fun b -> if t.joined_at.(b) >= 0 then t.cfg.slots else 0)
    in
    let inst =
      Vod_graph.Bipartite.create ~n_left ~n_right:t.cfg.n ~right_cap ~fill:(fun l emit ->
          let downloader, p = Vec.get wants l in
          for server = 0 to t.cfg.n - 1 do
            if
              server <> downloader
              && t.joined_at.(server) >= 0
              && Bitset.mem t.has.(server) p
            then emit server
          done)
    in
    let outcome = Vod_graph.Bipartite.solve inst in
    let transferred = ref 0 in
    Vec.iteri
      (fun l (downloader, p) ->
        if outcome.Vod_graph.Bipartite.assignment.(l) >= 0 then begin
          (* a want may be satisfiable by several servers; the matching
             gives at most one *)
          if not (Bitset.mem t.has.(downloader) p) then begin
            Bitset.add t.has.(downloader) p;
            t.arrival.(downloader).(p) <- t.now;
            t.holders.(p) <- t.holders.(p) + 1;
            incr transferred
          end
        end)
      wants;
    !transferred
  end

let complete t b = Bitset.cardinal t.has.(b) = t.cfg.pieces

let all_complete t =
  let ok = ref true in
  for b = 0 to t.cfg.n - 1 do
    if t.joined_at.(b) >= 0 && not (complete t b) then ok := false
  done;
  !ok

let piece_count t b = Bitset.cardinal t.has.(b)

let completion_round t ~box ~piece =
  let r = t.arrival.(box).(piece) in
  if r < 0 then None else Some r

let startup_delay t ~box ~rate =
  if rate < 1 then invalid_arg "Piece_swarm.startup_delay: rate must be >= 1";
  if not (complete t box) then None
  else begin
    let join = t.joined_at.(box) in
    (* playback starting at join + s consumes pieces 0..(tau+1)*rate-1
       by round join + s + tau; equivalently s >= arrival(p) - join -
       p/rate for every piece p *)
    let s = ref 0 in
    for p = 0 to t.cfg.pieces - 1 do
      let needed = t.arrival.(box).(p) - join - (p / rate) in
      if needed > !s then s := needed
    done;
    Some !s
  end

let finish_time t ~box =
  if not (complete t box) then None
  else begin
    let last = ref 0 in
    for p = 0 to t.cfg.pieces - 1 do
      if t.arrival.(box).(p) > !last then last := t.arrival.(box).(p)
    done;
    Some (!last - t.joined_at.(box))
  end
