(* Tests for the differential verification subsystem (vod_check):
   certificate checkers, cross-solver / cross-scheduler oracles, the
   shrinker, repro serialisation and the fuzz harness — plus the paper's
   Theorem 1 parameter inequalities over a (u, mu) grid.

   All QCheck generators embed an explicit PRNG seed in the generated
   value (the test_graph idiom), so every property is reproducible. *)

open Vod_util
open Vod_check
module B = Vod_graph.Bipartite

(* [Gen] is shadowed by [QCheck.Gen] inside the property list. *)
module CGen = Vod_check.Gen

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let instance_of_seed ?max_left ?max_right ?max_cap seed =
  Gen.instance (Prng.create ~seed ()) ?max_left ?max_right ?max_cap ()

(* Brute-force maximum b-matching on tiny instances, for ground truth. *)
let brute_force_max_matching (inst : Instance.t) =
  let best = ref 0 in
  let load = Array.make inst.n_right 0 in
  let rec go l matched =
    if l = inst.n_left then best := max !best matched
    else begin
      go (l + 1) matched;
      Array.iter
        (fun r ->
          if load.(r) < inst.right_cap.(r) then begin
            load.(r) <- load.(r) + 1;
            go (l + 1) (matched + 1);
            load.(r) <- load.(r) - 1
          end)
        inst.adj.(l)
    end
  in
  go 0 0;
  !best

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)
(* ------------------------------------------------------------------ *)

let contested_instance () =
  (* 3 requests over one 2-slot box: deficit 1, violator = everything *)
  Instance.make ~n_left:3 ~n_right:2 ~right_cap:[| 2; 3 |]
    ~adj:[| [| 0 |]; [| 0 |]; [| 0 |] |]

let test_checker_accepts_genuine () =
  let inst = instance_of_seed 1234 in
  let bip = Instance.to_bipartite inst in
  List.iter
    (fun (name, solve) ->
      match Certificate.check_matching inst (solve bip) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "genuine %s matching rejected: %s" name m)
    Oracle.solvers

let test_checker_rejects_corrupt_assignment () =
  let inst = contested_instance () in
  let o = B.solve (Instance.to_bipartite inst) in
  (* box 1 has slots but no possession edge: a "matching" that uses it
     fabricates data out of thin air and must be rejected *)
  let corrupt =
    {
      B.matched = 3;
      assignment = [| 0; 0; 1 |];
      right_load = [| 2; 1 |];
    }
  in
  checkb "genuine accepted" true (Certificate.check_matching inst o = Ok ());
  checkb "corrupt rejected" true (Result.is_error (Certificate.check_matching inst corrupt))

let test_checker_rejects_overloaded_box () =
  let inst = contested_instance () in
  let corrupt = { B.matched = 3; assignment = [| 0; 0; 0 |]; right_load = [| 3; 0 |] } in
  checkb "capacity violation rejected" true
    (Result.is_error (Certificate.check_matching inst corrupt))

let test_checker_rejects_bogus_violator () =
  let inst = contested_instance () in
  (match B.hall_violator (Instance.to_bipartite inst) with
  | None -> Alcotest.fail "expected a violator"
  | Some v ->
      checkb "genuine certificate confirmed" true
        (Certificate.check_violator inst v = Ok ());
      (* tampered slot count *)
      checkb "tampered slots rejected" true
        (Result.is_error
           (Certificate.check_violator inst { v with B.server_slots = v.B.server_slots + 5 }));
      (* dropping the only server hides a neighbour: the cut leaks *)
      checkb "leaky cut rejected" true
        (Result.is_error
           (Certificate.check_violator inst { v with B.servers = []; server_slots = 0 })));
  (* a feasible request set sold as a violator *)
  let feasible =
    { B.requests = [ 0 ]; servers = [ 0; 1 ]; server_slots = 5 }
  in
  checkb "non-obstruction rejected" true
    (Result.is_error (Certificate.check_violator inst feasible))

let test_fuzz_thousand_instances_clean () =
  let s = Fuzz.run ~seed:2026 ~instances:1000 ~scenarios:0 () in
  checki "instances checked" 1000 s.Fuzz.instances_checked;
  (match s.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "oracle failure [%s]: %s" f.Fuzz.kind f.Fuzz.detail)

let test_fuzz_scenarios_certify_failures () =
  (* scenario budget chosen so several failure rounds occur (adversaries
     + sub-threshold u are drawn with high probability across 6 draws) *)
  let s = Fuzz.run ~seed:5 ~instances:0 ~scenarios:6 ~rounds:25 () in
  (match s.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "oracle failure [%s]: %s" f.Fuzz.kind f.Fuzz.detail);
  checkb "some failure rounds were certified" true (s.Fuzz.failure_rounds_certified > 0)

let test_shrinker_minimises_contested () =
  (* predicate: instance is infeasible.  The shrinker must reach a local
     minimum that is still infeasible and no larger than the start. *)
  let still_fails i = not (B.is_feasible (Instance.to_bipartite i)) in
  let inst = instance_of_seed 1 in
  if still_fails inst then begin
    let m = Fuzz.shrink ~still_fails inst in
    checkb "still failing" true (still_fails m);
    checkb "no larger" true
      (m.Instance.n_left <= inst.Instance.n_left
      && Instance.edge_count m <= Instance.edge_count inst);
    (* infeasibility survives with a single unservable request *)
    checki "minimal: one request" 1 m.Instance.n_left;
    checki "minimal: no edges" 0 (Instance.edge_count m)
  end
  else Alcotest.fail "seed 1 was expected to generate an infeasible instance"

let test_repro_roundtrip_file () =
  let inst = instance_of_seed 31337 in
  let path = Filename.temp_file "vod-check" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Instance.save inst ~path;
      match Instance.load ~path with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok inst' -> checkb "roundtrip equal" true (Instance.equal inst inst'));
  checkb "missing file is an error" true (Result.is_error (Instance.load ~path:"/nonexistent/x.repro"));
  checkb "garbage is an error" true (Result.is_error (Instance.of_string "not a repro"))

(* A malformed repro is a one-line cmdliner error (exit 124) naming the
   file, not an uncaught exception (exit 125): a negative request
   count, one no array can hold, and a directory given as the file. *)
let test_replay_malformed_is_clean () =
  let repro left =
    Printf.sprintf "vod-check bipartite 1\nleft %s\nright 1\ncap 1\nedges 0\nend\n" left
  in
  let negative = Filename.temp_file "vod-check" ".repro" in
  let huge = Filename.temp_file "vod-check" ".repro" in
  Out_channel.with_open_bin negative (fun oc -> output_string oc (repro "-3"));
  Out_channel.with_open_bin huge (fun oc ->
      output_string oc (repro (string_of_int max_int)));
  let replay path =
    let err = Filename.temp_file "vodctl" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "../bin/vodctl.exe check --replay %s >/dev/null 2>%s"
           (Filename.quote path) (Filename.quote err))
    in
    let stderr = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    checki (path ^ ": exit 124") 124 code;
    checkb
      (path ^ ": one vodctl: line naming the file")
      true
      (String.starts_with
         ~prefix:("vodctl: repro " ^ path ^ ": cannot load repro: ")
         stderr
      && List.length (String.split_on_char '\n' (String.trim stderr)) = 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove negative;
      Sys.remove huge)
    (fun () -> List.iter replay [ negative; huge; Filename.get_temp_dir_name () ]);
  let error = Alcotest.(check (result reject string)) in
  error "negative left is named" (Error "negative size: left -3, right 1")
    (Instance.of_string (repro "-3"));
  error "unallocatable left is named"
    (Error
       (Printf.sprintf "left %d exceeds the largest array (%d)" max_int
          Sys.max_array_length))
    (Instance.of_string (repro (string_of_int max_int)));
  (* the largest array OCaml allows, 144 PB of rows: past any address
     space, so the allocation is refused without touching memory *)
  error "rows no heap can hold are named"
    (Error (Printf.sprintf "left %d: cannot allocate its rows" Sys.max_array_length))
    (Instance.of_string (repro (string_of_int Sys.max_array_length)));
  let dir = Filename.get_temp_dir_name () in
  error "directory is named" (Error (dir ^ ": is a directory")) (Instance.load ~path:dir)

(* Theorem 1 inequalities over a grid of u in (1, 8], mu in [1, 4]
   (satellite): c > (2 mu^2 - 1)/(u - 1), nu > 0, and
   k >= 5 nu^-1 log d' / log u'. *)
let theorem1_inequalities t =
  let open Vod_analysis.Theorem1 in
  let stripe_ok = float_of_int t.c > ((2.0 *. t.mu *. t.mu) -. 1.0) /. (t.u -. 1.0) in
  let nu_ok = t.nu > 0.0 in
  let k_ok =
    float_of_int t.k >= 5.0 /. t.nu *. log t.d_prime /. log t.u_eff -. 1e-9
  in
  stripe_ok && nu_ok && k_ok

let test_theorem1_grid () =
  for ui = 0 to 27 do
    for mi = 0 to 12 do
      let u = 1.05 +. (float_of_int ui *. (8.0 -. 1.05) /. 27.0) in
      let mu = 1.0 +. (float_of_int mi *. 3.0 /. 12.0) in
      List.iter
        (fun d ->
          let t = Vod_analysis.Theorem1.derive ~u ~mu ~d () in
          if not (theorem1_inequalities t) then
            Alcotest.failf "inequalities violated at u=%.3f mu=%.3f d=%g" u mu d)
        [ 1.0; 4.0; 16.0 ]
    done
  done

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  let seeded name ?(count = 100) gen prop =
    Test.make ~name ~count (make gen) prop
  in
  let seed_gen = QCheck.Gen.int_range 0 1_000_000 in
  [
    (* 1 *)
    seeded "four solvers agree and certificates check out" ~count:200 seed_gen
      (fun seed -> Result.is_ok (Oracle.solver_agreement (instance_of_seed seed)));
    (* 2 *)
    seeded "agreed cardinality equals brute force on tiny instances" ~count:150
      seed_gen (fun seed ->
        let inst = instance_of_seed ~max_left:6 ~max_right:4 ~max_cap:2 seed in
        match Oracle.solver_agreement inst with
        | Ok matched -> matched = brute_force_max_matching inst
        | Error _ -> false);
    (* 3 *)
    seeded "checker accepts every solver's outcome" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        let bip = Instance.to_bipartite inst in
        List.for_all
          (fun o -> Certificate.check_matching inst o = Ok ())
          [
            B.solve bip;
            Legacy.push_relabel bip;
            Legacy.hopcroft_karp bip;
            B.solve_min_cost bip ~edge_cost:(fun ~left ~right -> (left + right) mod 3);
          ]);
    (* 4 *)
    seeded "checker rejects a rewired assignment" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        let o = B.solve (Instance.to_bipartite inst) in
        (* rewire the first served request to a box it has no edge to *)
        let victim = ref (-1) in
        Array.iteri
          (fun l r -> if !victim < 0 && r >= 0 then victim := l)
          o.B.assignment;
        if !victim < 0 then true (* nothing matched: vacuous *)
        else begin
          let foreign = ref (-1) in
          for r = inst.Instance.n_right - 1 downto 0 do
            if not (Array.mem r inst.Instance.adj.(!victim)) then foreign := r
          done;
          if !foreign < 0 then true (* complete adjacency row: vacuous *)
          else begin
            let assignment = Array.copy o.B.assignment in
            assignment.(!victim) <- !foreign;
            Result.is_error
              (Certificate.check_matching inst { o with B.assignment })
          end
        end);
    (* 5 *)
    seeded "checker rejects inflated matched counts" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        let o = B.solve (Instance.to_bipartite inst) in
        Result.is_error (Certificate.check_matching inst { o with B.matched = o.B.matched + 1 }));
    (* 6 *)
    seeded "checker rejects inconsistent load bookkeeping" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        if inst.Instance.n_right = 0 then true
        else begin
          let o = B.solve (Instance.to_bipartite inst) in
          let right_load = Array.copy o.B.right_load in
          right_load.(0) <- right_load.(0) + 1;
          Result.is_error (Certificate.check_matching inst { o with B.right_load })
        end);
    (* 7 *)
    seeded "hall violator exists iff infeasible, and is confirmed" ~count:200
      seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        let bip = Instance.to_bipartite inst in
        match B.hall_violator bip with
        | None -> B.is_feasible bip
        | Some v ->
            (not (B.is_feasible bip)) && Certificate.check_violator inst v = Ok ());
    (* 8 *)
    seeded "checker rejects a violator with a hidden server" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        match B.hall_violator (Instance.to_bipartite inst) with
        | None -> true (* feasible: vacuous *)
        | Some v -> (
            (* drop one server that covers a neighbour, keeping the slot
               sum consistent, so only the cover check can catch it *)
            match v.B.servers with
            | [] ->
                (* all requests of X are isolated; dropping nothing —
                   tamper with slots instead *)
                Result.is_error
                  (Certificate.check_violator inst
                     { v with B.server_slots = v.B.server_slots - 1 })
            | s :: rest ->
                let slots =
                  List.fold_left (fun a r -> a + inst.Instance.right_cap.(r)) 0 rest
                in
                let covers_neighbour =
                  List.exists
                    (fun l -> Array.mem s inst.Instance.adj.(l))
                    v.B.requests
                in
                let verdict =
                  Certificate.check_violator inst
                    { v with B.servers = rest; server_slots = slots }
                in
                if covers_neighbour then Result.is_error verdict
                else (* s was slack in the cut: removing it only shrinks
                        capacity, the certificate stays valid *)
                  Result.is_ok verdict));
    (* 9 *)
    seeded "matching and violator are tight (Koenig duality)" ~count:200 seed_gen
      (fun seed ->
        let inst = instance_of_seed seed in
        let bip = Instance.to_bipartite inst in
        match B.hall_violator bip with
        | None -> true
        | Some v ->
            Certificate.check_optimal_pair inst (B.solve bip) v = Ok ());
    (* 10 *)
    seeded "serialisation roundtrips" seed_gen (fun seed ->
        let inst = instance_of_seed seed in
        match Instance.of_string (Instance.to_string inst) with
        | Ok inst' -> Instance.equal inst inst'
        | Error _ -> false);
    (* 11 *)
    seeded "shrinking preserves failure and never grows" ~count:60 seed_gen
      (fun seed ->
        let inst = instance_of_seed seed in
        let bip = Instance.to_bipartite inst in
        if B.is_feasible bip then true
        else begin
          let still_fails i = not (B.is_feasible (Instance.to_bipartite i)) in
          let m = Fuzz.shrink ~still_fails inst in
          still_fails m
          && m.Instance.n_left <= inst.Instance.n_left
          && m.Instance.n_right <= inst.Instance.n_right
          && Instance.edge_count m <= Instance.edge_count inst
          && Instance.total_slots m <= Instance.total_slots inst
        end);
    (* 12 *)
    seeded "theorem 1 inequalities hold for random (u, mu, d)" ~count:200
      QCheck.Gen.(
        let* seed = seed_gen in
        return seed)
      (fun seed ->
        let g = Prng.create ~seed () in
        let u = 1.0 +. (0.05 +. Prng.float g 6.95) in
        let mu = 1.0 +. Prng.float g 3.0 in
        let d = 0.5 +. Prng.float g 15.5 in
        theorem1_inequalities (Vod_analysis.Theorem1.derive ~u ~mu ~d ()));
    (* 13 *)
    seeded "schedulers agree on random scenarios" ~count:12 seed_gen (fun seed ->
        let g = Prng.create ~seed () in
        let sc = CGen.scenario g ~rounds:15 () in
        match
          Oracle.scheduler_agreement ~params:sc.CGen.params ~fleet:sc.CGen.fleet
            ~alloc:sc.CGen.alloc ~rounds:sc.CGen.rounds ~script:sc.CGen.script ()
        with
        | Ok _ -> true
        | Error m -> QCheck.Test.fail_reportf "%s: %s" sc.CGen.label m);
    (* 14 *)
    seeded "scenario scripts are deterministic in the seed" ~count:20 seed_gen
      (fun seed ->
        let sc1 = CGen.scenario (Prng.create ~seed ()) ~rounds:10 () in
        let sc2 = CGen.scenario (Prng.create ~seed ()) ~rounds:10 () in
        sc1.CGen.script = sc2.CGen.script && sc1.CGen.label = sc2.CGen.label);
  ]

(* Pinned-seed regression anchors: the deep fuzz sweeps (20k+ instances,
   160+ scenarios) found no solver or scheduler disagreement to fix; these
   seeds pin the sweep's coverage corners so a future regression in any
   solver trips a stable, named test rather than a roving fuzz failure. *)
let test_pinned_seed_regressions () =
  List.iter
    (fun seed ->
      match Oracle.solver_agreement (instance_of_seed seed) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "pinned seed %d: %s" seed m)
    [ 42; 7; 99; 1009; 65537; 31337; 271828; 314159 ]

let suites =
  [
    ( "check.certificate",
      [
        Alcotest.test_case "accepts genuine matchings" `Quick test_checker_accepts_genuine;
        Alcotest.test_case "rejects corrupt assignment" `Quick
          test_checker_rejects_corrupt_assignment;
        Alcotest.test_case "rejects overloaded box" `Quick test_checker_rejects_overloaded_box;
        Alcotest.test_case "rejects bogus violator" `Quick test_checker_rejects_bogus_violator;
      ] );
    ( "check.fuzz",
      [
        Alcotest.test_case "1000 instances, all solvers agree" `Quick
          test_fuzz_thousand_instances_clean;
        Alcotest.test_case "scenario failures are certified" `Quick
          test_fuzz_scenarios_certify_failures;
        Alcotest.test_case "shrinker reaches the minimal core" `Quick
          test_shrinker_minimises_contested;
        Alcotest.test_case "repro file roundtrip" `Quick test_repro_roundtrip_file;
        Alcotest.test_case "malformed replay is a clean error" `Quick
          test_replay_malformed_is_clean;
        Alcotest.test_case "pinned-seed regression anchors" `Quick
          test_pinned_seed_regressions;
      ] );
    ( "check.theorem1",
      [ Alcotest.test_case "inequality grid u in (1,8], mu in [1,4]" `Quick test_theorem1_grid ] );
    ("check.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
