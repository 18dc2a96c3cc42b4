open Vod_util
module Engine = Vod_sim.Engine
open Vod_model

let uncovered sim _time =
  let alloc = Engine.alloc sim in
  let cat = Allocation.catalog alloc in
  let m = Catalog.videos cat in
  if m = 0 then []
  else
    Array.to_list (Engine.idle_boxes sim)
    |> List.map (fun b ->
           match Allocation.videos_not_stored alloc ~box:b with
           | v :: _ -> (b, v)
           | [] ->
               (* the box stores part of every video: demand the one it
                  stores least of *)
               let count = Array.make m 0 in
               Array.iter
                 (fun s -> count.(Catalog.video_of_stripe cat s) <- count.(Catalog.video_of_stripe cat s) + 1)
                 (Allocation.stripes_of_box alloc b);
               let best = ref 0 in
               for v = 1 to m - 1 do
                 if count.(v) < count.(!best) then best := v
               done;
               (b, !best))

let tight_server_set g sim _time =
  let alloc = Engine.alloc sim in
  let cat = Allocation.catalog alloc in
  let m = Catalog.videos cat in
  if m = 0 then []
  else begin
    let n = Array.length (Engine.fleet sim) in
    (* Spare slots per box given current active requests are unknown to
       the adversary beyond capacity; rank videos by total capacity of
       their holder set. *)
    let slack_of_video v =
      let seen = Array.make n false in
      let total = ref 0 in
      Array.iter
        (fun s ->
          Array.iter
            (fun b ->
              if not seen.(b) then begin
                seen.(b) <- true;
                total := !total + Engine.upload_slots_of_box sim b
              end)
            (Allocation.boxes_of_stripe alloc s))
        (Catalog.stripes_of_video cat v);
      !total
    in
    let ranked = Array.init m (fun v -> (slack_of_video v, v)) in
    Array.sort compare ranked;
    let idle = Engine.idle_boxes sim in
    Sample.shuffle g idle;
    let count = min (Array.length idle) m in
    List.init count (fun i -> (idle.(i), snd ranked.(i)))
  end

let stampede ~video sim _time =
  Array.to_list (Engine.idle_boxes sim) |> List.map (fun b -> (b, video))
