open Vod_util
open Vod_model

type report = { repaired_stripes : int; replicas_added : int; unrepairable : int }

(* Replicas of stripe [s] on alive boxes, counted up to [target_k]: one
   plain loop over the row, which allocates nothing. *)
let alive_replicas ~target_k alloc alive s =
  let holders = Allocation.holders alloc in
  let i = ref (Allocation.row_start alloc s) and live = ref 0 in
  let stop = !i + Allocation.replica_count alloc s in
  while !live < target_k && !i < stop do
    if alive.(holders.(!i)) then incr live;
    incr i
  done;
  !live

(* Ascending stripe ids by construction — the pinned iteration order of
   [repair] (see the .mli determinism contract). *)
let under_replicated ~alloc ~alive ~target_k =
  let total = Catalog.total_stripes (Allocation.catalog alloc) in
  let acc = ref [] in
  for s = total - 1 downto 0 do
    if alive_replicas ~target_k alloc alive s < target_k then acc := s :: !acc
  done;
  !acc

let repair g ~fleet ~alloc ~alive ~target_k =
  let n = Allocation.n_boxes alloc in
  if Array.length alive <> n then Error "alive array size mismatch"
  else if Array.length fleet <> n then Error "fleet size mismatch"
  else if target_k < 1 then Error "target_k must be >= 1"
  else begin
    let c = Catalog.stripes_per_video (Allocation.catalog alloc) in
    let free =
      Array.init n (fun b ->
          if alive.(b) then Box.storage_slots ~c fleet.(b) - Allocation.box_load alloc b
          else 0)
    in
    let alloc' = Allocation.copy alloc in
    let candidates = Array.make n 0 in
    let repaired = ref 0 and added = ref 0 and unrepairable = ref 0 in
    (* Determinism contract: stripes are visited in ascending stripe-id
       order and donors are drawn by one [Sample.shuffle] pass per
       stripe over the candidate array built in ascending box-id order
       (a prefix of one reused array).  A stripe's installs go into
       [alloc'] and touch its own row only, so the rows of [alloc] that
       later stripes read are the rows of [alloc'].  Every PRNG draw is
       therefore a pure function of (seed, alloc, alive, target_k) —
       nothing depends on hash-table or OCaml-version
       specifics, so a repair is bit-reproducible anywhere (pinned by
       the repair.determinism regression test). *)
    List.iter
      (fun s ->
        let live = alive_replicas ~target_k alloc alive s in
        if live = 0 then incr unrepairable
        else begin
          let missing = target_k - live in
          (* candidate targets: alive, free slot ([free] is 0 on dead
             boxes), not already holding *)
          let count = ref 0 in
          for b = 0 to n - 1 do
            if free.(b) > 0 && not (Allocation.possesses alloc ~box:b ~stripe:s)
            then begin
              candidates.(!count) <- b;
              incr count
            end
          done;
          Sample.shuffle_prefix g candidates ~len:!count;
          let take = min missing !count in
          if take > 0 then begin
            incr repaired;
            for i = 0 to take - 1 do
              free.(candidates.(i)) <- free.(candidates.(i)) - 1
            done;
            Allocation.add_replicas alloc'
              (List.init take (fun i -> (s, candidates.(i))));
            added := !added + take
          end;
          if take < missing then incr unrepairable
        end)
      (under_replicated ~alloc ~alive ~target_k);
    Ok
      ( alloc',
        { repaired_stripes = !repaired; replicas_added = !added; unrepairable = !unrepairable }
      )
  end
