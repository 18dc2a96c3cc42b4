(* Tests for the Vod.System facade — the API every example and the CLI
   build on. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_homogeneous_defaults () =
  let s = Vod.System.homogeneous ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5 ~duration:10 () in
  (* default catalog is the storage bound dn/k = 16*4/4 = 16 *)
  checki "default catalog" 16 (Vod.System.catalog_size s);
  checkb "audit passes" true (Vod.System.audit s)

let test_homogeneous_explicit_m () =
  let s =
    Vod.System.homogeneous ~m:5 ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:4 ~mu:1.5 ~duration:10 ()
  in
  checki "explicit catalog" 5 (Vod.System.catalog_size s)

let test_schemes_selectable () =
  List.iter
    (fun scheme ->
      let s =
        Vod.System.homogeneous ~scheme ~n:12 ~u:1.5 ~d:4.0 ~c:2 ~k:2 ~mu:1.5
          ~duration:10 ()
      in
      checkb "catalog built" true (Vod.System.catalog_size s > 0))
    [ Vod.Schemes.Permutation; Vod.Schemes.Independent; Vod.Schemes.Round_robin ]

let test_simulate_and_scheduler_options () =
  let s = Vod.System.homogeneous ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~mu:1.5 ~duration:10 () in
  let g = Vod.Prng.create ~seed:3 () in
  let metrics =
    Vod.System.simulate s ~scheduler:Vod.Engine.Balance_load ~rounds:40
      ~workload:(Vod.Generators.uniform_arrivals g ~rate:1.5)
  in
  checkb "demand flowed" true (metrics.Vod.Metrics.total_demands > 5);
  checkb "all served" true (Vod.Metrics.all_served metrics)

let test_heterogeneous_builds_compensation () =
  let fleet =
    Vod.Box.Fleet.two_class ~n:20 ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.75 ~d:4.0
  in
  let s = Vod.System.heterogeneous ~u_star:1.25 ~fleet ~c:2 ~k:3 ~mu:1.2 ~duration:10 () in
  let g = Vod.Prng.create ~seed:5 () in
  let metrics =
    Vod.System.simulate s ~rounds:40
      ~workload:(Vod.Generators.uniform_arrivals g ~rate:1.0)
  in
  checkb "all served through relays" true (Vod.Metrics.all_served metrics)

let test_heterogeneous_uncompensable_fails () =
  let fleet = Vod.Box.Fleet.two_class ~n:20 ~rich_fraction:0.05 ~u_rich:1.5 ~u_poor:0.2 ~d:4.0 in
  checkb "raises Failure" true
    (try
       ignore (Vod.System.heterogeneous ~u_star:1.4 ~fleet ~c:2 ~k:2 ~mu:1.2 ~duration:10 ());
       false
     with Failure _ -> true)

let test_save_writes_both_files () =
  let s = Vod.System.homogeneous ~n:8 ~u:2.0 ~d:2.0 ~c:2 ~k:2 ~mu:1.5 ~duration:10 () in
  let alloc_path = Filename.temp_file "vod_sys_alloc" ".txt" in
  let fleet_path = Filename.temp_file "vod_sys_fleet" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove alloc_path;
      Sys.remove fleet_path)
    (fun () ->
      Vod.System.save s ~alloc_path ~fleet_path;
      checkb "alloc loads" true (Result.is_ok (Vod.Codec.load ~path:alloc_path));
      checkb "fleet loads" true (Result.is_ok (Vod.Codec.load_fleet ~path:fleet_path)))

(* A build the library cannot make ([Schemes.random_independent] finds
   no box for a replica at the defaults) or a parameter it rejects
   (mu < 1, no boxes, a non-finite number) is a one-line cmdliner error
   (exit 124) with nothing on stdout, not an uncaught exception (exit
   125) or a report over nonsense values. *)
let test_cli_build_failure_is_clean () =
  List.iter
    (fun (args, prefix) ->
      let out = Filename.temp_file "vodctl" ".out" in
      let err = Filename.temp_file "vodctl" ".err" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/vodctl.exe %s >%s 2>%s" args (Filename.quote out)
             (Filename.quote err))
      in
      let stdout = In_channel.with_open_bin out In_channel.input_all in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove out;
      Sys.remove err;
      checki (args ^ ": exit 124") 124 code;
      Alcotest.(check string) (args ^ ": nothing on stdout") "" stdout;
      checkb
        (args ^ ": one vodctl: line naming the failure")
        true
        (String.starts_with ~prefix:("vodctl: " ^ prefix) stderr
        && List.length (String.split_on_char '\n' (String.trim stderr)) = 1))
    [
      ("allocate --scheme independent", "Schemes.random_independent");
      ("attack --scheme independent", "Schemes.random_independent");
      ("bounds --mu 0", "Theorem1: requires mu >= 1");
      ("plan --mu 0", "Theorem1: requires mu >= 1");
      ("plan -n 0", "-n must be >= 1");
      ("simulate -u nan", "Box.make: non-finite capacity");
      ("bounds -u nan", "Theorem1: u and mu must be finite");
      ("bounds --threshold nan", "Theorem2: u_star and mu must be finite");
    ]

let suites =
  [
    ( "core.system",
      [
        Alcotest.test_case "homogeneous defaults" `Quick test_homogeneous_defaults;
        Alcotest.test_case "explicit catalog size" `Quick test_homogeneous_explicit_m;
        Alcotest.test_case "schemes selectable" `Quick test_schemes_selectable;
        Alcotest.test_case "simulate + scheduler option" `Quick test_simulate_and_scheduler_options;
        Alcotest.test_case "heterogeneous compensation" `Quick test_heterogeneous_builds_compensation;
        Alcotest.test_case "uncompensable rejected" `Quick test_heterogeneous_uncompensable_fails;
        Alcotest.test_case "save writes both files" `Quick test_save_writes_both_files;
        Alcotest.test_case "cli build failure is a clean error" `Quick
          test_cli_build_failure_is_clean;
      ] );
  ]
