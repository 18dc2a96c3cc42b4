open Vod_util
open Vod_model

let total_slots ~fleet ~c =
  Array.fold_left (fun acc b -> acc + Box.storage_slots ~c b) 0 fleet

let max_catalog ~fleet ~c ~k =
  if c < 1 then invalid_arg "Schemes.max_catalog: c must be >= 1";
  if k < 1 then invalid_arg "Schemes.max_catalog: k must be >= 1";
  total_slots ~fleet ~c / (k * c)

let slot_owners ~fleet ~c =
  (* Expand the fleet into a flat array of slots, one entry per storage
     slot, owned by its box id. *)
  let owners = Array.make (total_slots ~fleet ~c) 0 in
  let next = ref 0 in
  Array.iter
    (fun b ->
      let slots = Box.storage_slots ~c b in
      Array.fill owners !next slots b.Box.id;
      next := !next + slots)
    fleet;
  owners

let random_permutation g ~fleet ~catalog ~k =
  let c = Catalog.stripes_per_video catalog in
  let total = Catalog.total_stripes catalog in
  if k < 1 then invalid_arg "Schemes.random_permutation: k must be >= 1";
  let owners = slot_owners ~fleet ~c in
  if k * total > Array.length owners then
    invalid_arg "Schemes.random_permutation: replicas exceed storage slots";
  Sample.shuffle g owners;
  (* stripe [s] takes slots [s*k .. s*k + k - 1], read from the last:
     a box the stripe already holds is dropped, the later slot winning
     ([last_stripe.(b)]: the last stripe [b] was kept for) *)
  let last_stripe = Array.make (Array.length fleet) (-1) in
  let boxes_of_stripe =
    Array.init total (fun s ->
        let row = Array.make k 0 and len = ref 0 in
        for i = (s * k) + k - 1 downto s * k do
          let b = owners.(i) in
          if last_stripe.(b) <> s then begin
            last_stripe.(b) <- s;
            row.(!len) <- b;
            incr len
          end
        done;
        if !len = k then row else Array.sub row 0 !len)
  in
  Allocation.of_replica_lists ~catalog ~n_boxes:(Array.length fleet) boxes_of_stripe

let random_independent g ~fleet ~catalog ~k =
  let c = Catalog.stripes_per_video catalog in
  let total = Catalog.total_stripes catalog in
  if k < 1 then invalid_arg "Schemes.random_independent: k must be >= 1";
  let n = Array.length fleet in
  let capacity = Array.map (fun b -> Box.storage_slots ~c b) fleet in
  let load = Array.make n 0 in
  let weights = Array.map (fun b -> b.Box.storage) fleet in
  let cat = Sample.Categorical.create weights in
  let per_stripe = Array.make total [] in
  for s = 0 to total - 1 do
    for _ = 1 to k do
      (* Redraw on a full box or a duplicate holder; bail out to a linear
         scan when unlucky so termination is guaranteed. *)
      let placed = ref false and attempts = ref 0 in
      while not !placed do
        incr attempts;
        let b =
          if !attempts <= 64 then Sample.Categorical.draw g cat
          else begin
            let free = ref (-1) in
            for i = 0 to n - 1 do
              if !free = -1 && load.(i) < capacity.(i) && not (List.mem i per_stripe.(s))
              then free := i
            done;
            if !free = -1 then failwith "Schemes.random_independent: no box can take replica";
            !free
          end
        in
        if load.(b) < capacity.(b) && not (List.mem b per_stripe.(s)) then begin
          load.(b) <- load.(b) + 1;
          per_stripe.(s) <- b :: per_stripe.(s);
          placed := true
        end
      done
    done
  done;
  Allocation.of_replica_lists ~catalog ~n_boxes:n (Array.map Array.of_list per_stripe)

let round_robin ~fleet ~catalog ~k =
  let c = Catalog.stripes_per_video catalog in
  let total = Catalog.total_stripes catalog in
  if k < 1 then invalid_arg "Schemes.round_robin: k must be >= 1";
  let n = Array.length fleet in
  let capacity = Array.map (fun b -> Box.storage_slots ~c b) fleet in
  let load = Array.make n 0 in
  let per_stripe = Array.make total [] in
  for s = 0 to total - 1 do
    for i = 0 to k - 1 do
      let start = ((s * k) + i) mod n in
      let rec place offset =
        if offset = n then
          invalid_arg "Schemes.round_robin: replicas exceed storage slots"
        else
          let b = (start + offset) mod n in
          if load.(b) < capacity.(b) && not (List.mem b per_stripe.(s)) then begin
            load.(b) <- load.(b) + 1;
            per_stripe.(s) <- b :: per_stripe.(s)
          end
          else place (offset + 1)
      in
      place 0
    done
  done;
  Allocation.of_replica_lists ~catalog ~n_boxes:n (Array.map Array.of_list per_stripe)

let full_replication ~fleet ~catalog =
  let c = Catalog.stripes_per_video catalog in
  let m = Catalog.videos catalog in
  let total = Catalog.total_stripes catalog in
  let n = Array.length fleet in
  if total = 0 then
    Allocation.of_replica_lists ~catalog ~n_boxes:n [||]
  else begin
    (* Push-to-Peer layout: box b stores stripe ((b + v) mod c) of every
       video v, so each box holds a 1/c chunk of the whole catalog and
       every stripe is replicated by the ~n/c boxes whose id is congruent
       to its index shift.  Requires m storage slots per box. *)
    Array.iter
      (fun box ->
        if Box.storage_slots ~c box < m then
          invalid_arg "Schemes.full_replication: box storage below catalog size")
      fleet;
    let per_stripe = Array.make total [] in
    for b = 0 to n - 1 do
      for v = 0 to m - 1 do
        let j = (b + v) mod c in
        let s = (v * c) + j in
        per_stripe.(s) <- b :: per_stripe.(s)
      done
    done;
    Allocation.of_replica_lists ~catalog ~n_boxes:n (Array.map Array.of_list per_stripe)
  end

type scheme = Permutation | Independent | Round_robin | Full_replication

let names =
  [
    ("permutation", Permutation);
    ("independent", Independent);
    ("round-robin", Round_robin);
    ("full-replication", Full_replication);
  ]

let allocate g ~scheme ~fleet ~catalog ~k =
  match scheme with
  | Permutation -> random_permutation g ~fleet ~catalog ~k
  | Independent -> random_independent g ~fleet ~catalog ~k
  | Round_robin -> round_robin ~fleet ~catalog ~k
  | Full_replication -> full_replication ~fleet ~catalog
