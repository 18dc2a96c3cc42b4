open Vod_model
open Vod_analysis

type fleet_spec = { count : int; u : float; d : float }

let ranges ~base_n specs =
  let start = ref base_n in
  specs
  |> List.map (fun f ->
         let s = !start in
         start := s + f.count;
         (s, f.count))
  |> Array.of_list

let extend_fleet base specs =
  let id = ref (Array.length base) in
  let extra =
    List.concat_map
      (fun f ->
        List.init f.count (fun _ ->
            let b = Box.make ~id:!id ~upload:f.u ~storage:f.d in
            incr id;
            b))
      specs
  in
  Array.append base (Array.of_list extra)

(* Helpers are seeded deterministically: box [base_n + j] fills all its
   storage slots with consecutive stripe ids starting where the previous
   helper stopped (mod the catalog).  No RNG is involved, the base
   allocation's replica lists are untouched (so a run without demands on
   the helpers is bit-for-bit the base run), and every helper slot is
   full — which keeps helpers out of the repair controller's candidate
   destinations. *)
let seed_allocation ~fleet ~c base =
  let catalog = Allocation.catalog base in
  let stripes = Catalog.total_stripes catalog in
  let base_n = Allocation.n_boxes base in
  let n = Array.length fleet in
  if n < base_n then invalid_arg "Helpers.seed_allocation: fleet smaller than the allocation";
  let extra = Array.make (max stripes 1) [] in
  let offset = ref 0 in
  for b = base_n to n - 1 do
    if stripes > 0 then begin
      let take = min (Box.storage_slots ~c fleet.(b)) stripes in
      for i = 0 to take - 1 do
        let s = (!offset + i) mod stripes in
        extra.(s) <- b :: extra.(s)
      done;
      offset := (!offset + take) mod stripes
    end
  done;
  let replica_lists =
    Array.init stripes (fun s ->
        Array.append
          (Array.sub (Allocation.holders base) (Allocation.row_start base s)
             (Allocation.replica_count base s))
          (Array.of_list (List.rev extra.(s))))
  in
  Allocation.of_replica_lists ~catalog ~n_boxes:n replica_lists

let extend_compensation ~n (comp : Theorem2.compensation) =
  let base_n = Array.length comp.Theorem2.relay_of in
  if n < base_n then invalid_arg "Helpers.extend_compensation: n smaller than the base fleet";
  {
    Theorem2.relay_of =
      Array.init n (fun b -> if b < base_n then comp.Theorem2.relay_of.(b) else -1);
    reserved = Array.init n (fun b -> if b < base_n then comp.Theorem2.reserved.(b) else 0.0);
  }
