open Vod_util

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_cases = Vod_obs.Registry.counter Vod_obs.Registry.default "fuzz.cases"
let obs_shrinks = Vod_obs.Registry.counter Vod_obs.Registry.default "fuzz.shrink_steps"
let obs_failures = Vod_obs.Registry.counter Vod_obs.Registry.default "fuzz.failures"

type failure = {
  seed : int;
  index : int;
  kind : string;
  detail : string;
  repro_path : string option;
}

type summary = {
  instances_checked : int;
  scenarios_checked : int;
  failure_rounds_certified : int;
  failures : failure list;
}

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let drop_left (inst : Instance.t) l =
  Instance.make ~n_left:(inst.n_left - 1) ~n_right:inst.n_right
    ~right_cap:inst.right_cap
    ~adj:(Array.init (inst.n_left - 1) (fun i -> inst.adj.(if i < l then i else i + 1)))

let drop_edge (inst : Instance.t) l i =
  let adj = Array.copy inst.adj in
  adj.(l) <- Array.init (Array.length adj.(l) - 1) (fun j -> adj.(l).(if j < i then j else j + 1));
  Instance.make ~n_left:inst.n_left ~n_right:inst.n_right ~right_cap:inst.right_cap ~adj

let lower_cap (inst : Instance.t) r =
  let right_cap = Array.copy inst.right_cap in
  right_cap.(r) <- right_cap.(r) - 1;
  Instance.make ~n_left:inst.n_left ~n_right:inst.n_right ~right_cap ~adj:inst.adj

(* Remove boxes that no request can reach; they cannot influence any
   solver, so this is always sound.  Renumbers the survivors. *)
let drop_unreachable_rights (inst : Instance.t) =
  let used = Array.make inst.n_right false in
  Array.iter (Array.iter (fun r -> used.(r) <- true)) inst.adj;
  let remap = Array.make inst.n_right (-1) in
  let next = ref 0 in
  Array.iteri
    (fun r u ->
      if u then begin
        remap.(r) <- !next;
        incr next
      end)
    used;
  if !next = inst.n_right then inst
  else
    let right_cap = Array.make !next 0 in
    Array.iteri (fun r c -> if remap.(r) >= 0 then right_cap.(remap.(r)) <- c) inst.right_cap;
    Instance.make ~n_left:inst.n_left ~n_right:!next ~right_cap
      ~adj:(Array.map (Array.map (fun r -> remap.(r))) inst.adj)

let shrink ~still_fails inst0 =
  let current = ref inst0 in
  let try_step candidate =
    match candidate () with
    | c when still_fails c ->
        current := c;
        Vod_obs.Registry.incr obs_shrinks;
        true
    | _ -> false
    | exception Invalid_argument _ -> false
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* drop whole requests, largest index first to keep indices stable *)
    let l = ref ((!current).Instance.n_left - 1) in
    while !l >= 0 do
      let here = !l in
      if try_step (fun () -> drop_left !current here) then progress := true;
      decr l
    done;
    (* drop single edges *)
    let l = ref ((!current).Instance.n_left - 1) in
    while !l >= 0 do
      let here = !l in
      let i = ref (Array.length (!current).Instance.adj.(here) - 1) in
      while !i >= 0 do
        let edge = !i in
        if try_step (fun () -> drop_edge !current here edge) then progress := true;
        decr i
      done;
      decr l
    done;
    (* lower capacities one slot at a time *)
    for r = 0 to (!current).Instance.n_right - 1 do
      while
        (!current).Instance.right_cap.(r) > 0
        && try_step (fun () -> lower_cap !current r)
      do
        progress := true
      done
    done;
    (* finally discard boxes no surviving edge touches; only counts as
       progress when it actually removed one, else the loop never ends *)
    let pruned = drop_unreachable_rights !current in
    if pruned != !current && try_step (fun () -> pruned) then progress := true
  done;
  !current

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)
(* ------------------------------------------------------------------ *)

let replay ~path =
  match Instance.load ~path with
  | Error m -> Error ("cannot load repro: " ^ m)
  | Ok inst -> Oracle.solver_agreement inst

(* Scenario indices live in their own stream space so that raising the
   instance budget never reshuffles the scenarios a seed denotes. *)
let scenario_stream_base = 0x5eed_0000

let run ?(seed = 42) ?(instances = 1000) ?(scenarios = 12) ?(rounds = 30) ?repro_dir ()
    =
  let root = Prng.create ~seed () in
  let failures = ref [] in
  let certified = ref 0 in
  for index = 0 to instances - 1 do
    let g = Prng.jump_to_stream root index in
    let inst = Gen.instance g () in
    Vod_obs.Registry.incr obs_cases;
    match Oracle.solver_agreement inst with
    | Ok _ -> ()
    | Error detail ->
        Vod_obs.Registry.incr obs_failures;
        let still_fails i = Result.is_error (Oracle.solver_agreement i) in
        let minimal = shrink ~still_fails inst in
        let repro_path =
          Option.map
            (fun dir ->
              let path =
                Filename.concat dir (Printf.sprintf "solver-seed%d-i%d.repro" seed index)
              in
              Instance.save minimal ~path;
              path)
            repro_dir
        in
        failures := { seed; index; kind = "solver"; detail; repro_path } :: !failures
  done;
  for index = 0 to scenarios - 1 do
    let g = Prng.jump_to_stream root (scenario_stream_base + index) in
    let sc = Gen.scenario g ~rounds () in
    Vod_obs.Registry.incr obs_cases;
    match
      Oracle.scheduler_agreement ~params:sc.Gen.params ~fleet:sc.Gen.fleet
        ~alloc:sc.Gen.alloc ~rounds:sc.Gen.rounds ~script:sc.Gen.script ()
    with
    | Ok o -> certified := !certified + o.Oracle.certified_failure_rounds
    | Error detail ->
        Vod_obs.Registry.incr obs_failures;
        failures :=
          {
            seed;
            index;
            kind = Printf.sprintf "scheduler(%s)" sc.Gen.label;
            detail;
            repro_path = None;
          }
          :: !failures
  done;
  {
    instances_checked = instances;
    scenarios_checked = scenarios;
    failure_rounds_certified = !certified;
    failures = List.rev !failures;
  }
