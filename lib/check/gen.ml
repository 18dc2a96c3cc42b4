open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Schemes = Vod_alloc.Schemes

let instance g ?(max_left = 40) ?(max_right = 24) ?(max_cap = 5) () =
  let n_left = Prng.int g (max_left + 1) in
  let n_right = 1 + Prng.int g max_right in
  let shape = Prng.int g 4 in
  let right_cap =
    match shape with
    | 3 -> Array.init n_right (fun _ -> Prng.int g 2) (* tight: slots 0/1 *)
    | _ -> Array.init n_right (fun _ -> Prng.int g (max_cap + 1))
  in
  let adj =
    match shape with
    | 2 ->
        (* single hub: most requests can only reach a few boxes *)
        let hubs = 1 + Prng.int g (min 3 n_right) in
        Array.init n_left (fun _ ->
            let extra =
              if Prng.float g 1.0 < 0.15 then [ Prng.int g n_right ] else []
            in
            Array.of_list (Prng.int g hubs :: extra))
    | _ ->
        let edge_prob =
          if shape = 0 then 0.05 +. Prng.float g 0.2 else 0.4 +. Prng.float g 0.5
        in
        Array.init n_left (fun _ ->
            let row = ref [] in
            for r = 0 to n_right - 1 do
              if Prng.float g 1.0 < edge_prob then row := r :: !row
            done;
            Array.of_list !row)
  in
  Instance.make ~n_left ~n_right ~right_cap ~adj

(* ------------------------------------------------------------------ *)
(* Simulator scenarios                                                 *)
(* ------------------------------------------------------------------ *)

type scenario = {
  label : string;
  params : Params.t;
  fleet : Box.t array;
  alloc : Allocation.t;
  rounds : int;
  script : (int * int * int) list;
}

let record_script ~params ~fleet ~alloc ~rounds gen =
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let out = ref [] in
  for _ = 1 to rounds do
    let time = Engine.now e + 1 in
    List.iter
      (fun (b, v) ->
        (* same sequential acceptance as Engine.run: a demand marks the
           box non-idle, so later duplicates this round are dropped *)
        if Engine.is_idle e b then begin
          Engine.demand e ~box:b ~video:v;
          out := (time, b, v) :: !out
        end)
      (gen e time);
    ignore (Engine.step e)
  done;
  List.rev !out

let scenario g ?(rounds = 30) () =
  let n = 8 + Prng.int g 33 in
  let u = 0.7 +. Prng.float g 2.3 in
  let mu = 1.0 +. Prng.float g 1.0 in
  let d = 1.0 +. Prng.float g 3.0 in
  let c = 1 + Prng.int g 6 in
  let k = 1 + Prng.int g 4 in
  let duration = 6 + Prng.int g 19 in
  let params = Params.make ~n ~c ~mu ~duration in
  let fleet = Box.Fleet.homogeneous ~n ~u ~d in
  let scheme_name, scheme = List.nth Schemes.names (Prng.int g 4) in
  let m_max = Schemes.max_catalog ~fleet ~c ~k in
  let m = max 1 (min m_max ((n / 2) + Prng.int g n)) in
  (* full replication stores one stripe of every video on every box *)
  let m =
    if scheme = Schemes.Full_replication then
      max 1 (min m (Box.storage_slots ~c fleet.(0)))
    else m
  in
  let catalog = Catalog.create ~m ~c in
  let scheme_name, alloc =
    (* independent placement can run out of room, full replication
       out of per-box slots: both fall back to a permutation *)
    match Schemes.allocate g ~scheme ~fleet ~catalog ~k with
    | alloc -> (scheme_name, alloc)
    | exception (Failure _ | Invalid_argument _) ->
        ("permutation", Schemes.allocate g ~scheme:Schemes.Permutation ~fleet ~catalog ~k)
  in
  let rate = 1.0 +. Prng.float g (float_of_int n /. 6.0) in
  let wg = Prng.split g in
  let workload_name, workload =
    match Prng.int g 7 with
    | 0 -> ("uniform", Vod_workload.Generators.uniform_arrivals wg ~rate)
    | 1 -> ("zipf", Vod_workload.Generators.zipf_arrivals wg ~rate ~s:0.9)
    | 2 ->
        ( "flash",
          Vod_workload.Generators.flash_crowd wg ~video:(Prng.int g m)
            ~background_rate:(rate /. 2.0) () )
    | 3 ->
        let per_round = 1 + Prng.int g 4 in
        ("constant", Vod_workload.Generators.constant_per_round wg ~per_round)
    | 4 -> ("uncovered", Vod_adversary.Attacks.uncovered)
    | 5 -> ("tight", Vod_adversary.Attacks.tight_server_set wg)
    | _ -> ("stampede", Vod_adversary.Attacks.stampede ~video:(Prng.int g m))
  in
  let script = record_script ~params ~fleet ~alloc ~rounds workload in
  {
    label =
      Printf.sprintf "n=%d u=%.2f c=%d k=%d m=%d %s/%s" n u c k m scheme_name
        workload_name;
    params;
    fleet;
    alloc;
    rounds;
    script;
  }
