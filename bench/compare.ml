(* compare — diff a freshly generated BENCH_matching.json against the
   committed baseline and fail on ns_per_round regressions,
   matched_per_round drift or missing points.

     dune exec bench/compare.exe -- BASELINE CURRENT \
       [--threshold PCT] [--format table|json]

   A second mode checks absolute ceilings instead of a relative diff:

     dune exec bench/compare.exe -- CURRENT --ceiling NAME@N=NS ...

   Each (repeatable) --ceiling pins one record: the row named NAME at
   size N must exist and its ns_per_round must not exceed NS.  This is
   the CI kernel-smoke gate — baseline-independent, so a noisy runner
   can only trip it by being slower than the generously pinned
   absolute budget, not by drifting relative to a lucky baseline run.

   Records are matched on (name, n); every row gets one status:

     ok         within the threshold, no drift
     new        present only in the current run (never fails: the gate
                must survive adding benchmarks)
     regressed  ns_per_round exceeds the baseline's by more than the
                threshold (default 25%)
     drift      matched_per_round moved by more than 0.1% relative —
                the sequences are seeded, so cardinality is
                deterministic and a drift means a solver stopped
                finding the optimum, which no timing budget excuses
     missing    present only in the baseline.  A hard failure: a
                silently vanished point would otherwise turn the gate
                off for that benchmark (rename both sides together)

   [--format table] (default) prints the human table to stdout;
   [--format json] prints a machine-readable vod-bench-diff/1 document
   to stdout instead (CI uploads it as an artifact next to
   BENCH_matching.json).  In both formats the offending rows are
   repeated on stderr, so a failing CI log shows exactly which rows
   sank the run rather than a bare nonzero exit.  Exit status: 0
   clean, 1 regression/drift/missing, 2 bad input.  Wired as the CI
   perf stage and as `make bench-compare`. *)

open Vod_json

(* ------------------------------------------------------------------ *)
(* Record extraction and comparison                                    *)
(* ------------------------------------------------------------------ *)

type record = {
  name : string;
  n : int;
  ns_per_round : float;
  matched_per_round : float option; (* absent in pre-drift-gate files *)
}

let records_of_file path =
  let contents =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let root =
    try parse contents with Parse m -> raise (Parse (Printf.sprintf "%s: %s" path m))
  in
  (match field "schema" root with
  | Some (Str "vod-bench-matching/1") -> ()
  | _ -> raise (Parse (path ^ ": missing or unknown \"schema\"")));
  match field "records" root with
  | Some (Arr items) ->
      List.map
        (fun item ->
          match (field "name" item, field "n" item, field "ns_per_round" item) with
          | Some (Str name), Some (Num n), Some (Num ns) ->
              let matched_per_round =
                match field "matched_per_round" item with
                | Some (Num m) -> Some m
                | _ -> None
              in
              { name; n = int_of_float n; ns_per_round = ns; matched_per_round }
          | _ -> raise (Parse (path ^ ": malformed record")))
        items
  | _ -> raise (Parse (path ^ ": missing \"records\" array"))

(* ------------------------------------------------------------------ *)
(* The diff                                                            *)
(* ------------------------------------------------------------------ *)

type status = Ok_row | New | Regressed | Drift | Missing

let status_name = function
  | Ok_row -> "ok"
  | New -> "new"
  | Regressed -> "regressed"
  | Drift -> "drift"
  | Missing -> "missing"

let failing = function Regressed | Drift | Missing -> true | Ok_row | New -> false

type row = {
  r_name : string;
  r_n : int;
  status : status;
  base_ns : float option;
  cur_ns : float option;
  delta_pct : float option;
  base_matched : float option;
  cur_matched : float option;
}

let diff ~threshold baseline current =
  let of_current cur =
    match List.find_opt (fun b -> b.name = cur.name && b.n = cur.n) baseline with
    | None ->
        {
          r_name = cur.name;
          r_n = cur.n;
          status = New;
          base_ns = None;
          cur_ns = Some cur.ns_per_round;
          delta_pct = None;
          base_matched = None;
          cur_matched = cur.matched_per_round;
        }
    | Some base ->
        let delta = 100.0 *. ((cur.ns_per_round /. base.ns_per_round) -. 1.0) in
        let drifted =
          match (base.matched_per_round, cur.matched_per_round) with
          | Some bm, Some cm -> abs_float (cm -. bm) > 0.001 *. Float.max 1.0 (abs_float bm)
          | _ -> false
        in
        let status =
          if drifted then Drift else if delta > threshold then Regressed else Ok_row
        in
        {
          r_name = cur.name;
          r_n = cur.n;
          status;
          base_ns = Some base.ns_per_round;
          cur_ns = Some cur.ns_per_round;
          delta_pct = Some delta;
          base_matched = base.matched_per_round;
          cur_matched = cur.matched_per_round;
        }
  in
  let missing =
    List.filter_map
      (fun b ->
        if List.exists (fun c -> c.name = b.name && c.n = b.n) current then None
        else
          Some
            {
              r_name = b.name;
              r_n = b.n;
              status = Missing;
              base_ns = Some b.ns_per_round;
              cur_ns = None;
              delta_pct = None;
              base_matched = b.matched_per_round;
              cur_matched = None;
            })
      baseline
  in
  List.map of_current current @ missing

let print_table ~threshold rows =
  Printf.printf "%-36s %6s %14s %14s %9s\n" "benchmark" "n" "baseline ns/rd"
    "current ns/rd" "status";
  List.iter
    (fun r ->
      let num = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      let status =
        match (r.status, r.delta_pct) with
        | Ok_row, Some d -> Printf.sprintf "%+.1f%%" d
        | s, _ -> String.uppercase_ascii (status_name s)
      in
      Printf.printf "%-36s %6d %14s %14s %9s\n" r.r_name r.r_n (num r.base_ns)
        (num r.cur_ns) status)
    rows;
  if not (List.exists (fun r -> failing r.status) rows) then
    Printf.printf
      "verdict: no ns_per_round regression beyond %.0f%%, no matched_per_round drift, \
       no missing point\n"
      threshold

(* vod-bench-diff/1: one self-describing document, every row present
   with its status, nullable fields spelled null.  CI uploads it as an
   artifact next to the raw BENCH_matching.json records. *)
let print_json ~threshold rows =
  let b = Buffer.create 2048 in
  let opt = function Some v -> Printf.sprintf "%.3f" v | None -> "null" in
  Buffer.add_string b "{\n  \"schema\": \"vod-bench-diff/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"threshold_pct\": %.1f,\n" threshold);
  Buffer.add_string b
    (Printf.sprintf "  \"verdict\": \"%s\",\n"
       (if List.exists (fun r -> failing r.status) rows then "regression" else "clean"));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"n\": %d, \"status\": \"%s\", \
            \"baseline_ns_per_round\": %s, \"current_ns_per_round\": %s, \
            \"delta_pct\": %s, \"baseline_matched_per_round\": %s, \
            \"current_matched_per_round\": %s}%s\n"
           r.r_name r.r_n (status_name r.status) (opt r.base_ns) (opt r.cur_ns)
           (opt r.delta_pct) (opt r.base_matched) (opt r.cur_matched)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  print_string (Buffer.contents b)

(* Offending rows go to stderr in both formats: a failing CI log must
   show what sank the run, not a bare exit status. *)
let print_offenders ~threshold rows =
  List.iter
    (fun r ->
      match r.status with
      | Regressed ->
          Printf.eprintf "REGRESSION %s n=%d: %.0f -> %.0f ns/round (%+.1f%% > %.0f%%)\n"
            r.r_name r.r_n
            (Option.value r.base_ns ~default:0.0)
            (Option.value r.cur_ns ~default:0.0)
            (Option.value r.delta_pct ~default:0.0)
            threshold
      | Drift ->
          Printf.eprintf
            "DRIFT %s n=%d: matched/round %.3f -> %.3f (cardinality must not move)\n"
            r.r_name r.r_n
            (Option.value r.base_matched ~default:0.0)
            (Option.value r.cur_matched ~default:0.0)
      | Missing ->
          Printf.eprintf
            "MISSING %s n=%d: present in the baseline but absent from the current run\n"
            r.r_name r.r_n
      | Ok_row | New -> ())
    rows

(* --ceiling NAME@N=NS: absolute per-record budgets, no baseline. *)
let parse_ceiling spec =
  match String.index_opt spec '=' with
  | None -> None
  | Some eq -> (
      let lhs = String.sub spec 0 eq in
      let rhs = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match (String.rindex_opt lhs '@', float_of_string_opt rhs) with
      | Some at, Some ns when ns > 0.0 -> (
          let name = String.sub lhs 0 at in
          let n = String.sub lhs (at + 1) (String.length lhs - at - 1) in
          match int_of_string_opt n with
          | Some n when name <> "" -> Some (name, n, ns)
          | _ -> None)
      | _ -> None)

let check_ceilings ceilings path =
  let records = records_of_file path in
  let bad = ref false in
  List.iter
    (fun (name, n, budget) ->
      match List.find_opt (fun r -> r.name = name && r.n = n) records with
      | None ->
          Printf.eprintf "MISSING %s n=%d: no such record in %s\n" name n path;
          bad := true
      | Some r when r.ns_per_round > budget ->
          Printf.eprintf "CEILING %s n=%d: %.0f ns/round exceeds the %.0f ns budget\n"
            name n r.ns_per_round budget;
          bad := true
      | Some r ->
          Printf.printf "ok %s n=%d: %.0f ns/round within the %.0f ns budget\n" name n
            r.ns_per_round budget)
    ceilings;
  if not !bad then Printf.printf "verdict: all %d ceilings hold\n" (List.length ceilings);
  exit (if !bad then 1 else 0)

let () =
  let args = Array.to_list Sys.argv in
  let threshold = ref 25.0 in
  let format = ref `Table in
  let paths = ref [] in
  let ceilings = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: pct :: rest ->
        (match float_of_string_opt pct with
        | Some p when p > 0.0 -> threshold := p
        | _ ->
            prerr_endline "compare: --threshold expects a positive percentage";
            exit 2);
        parse rest
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "table" -> format := `Table
        | "json" -> format := `Json
        | _ ->
            prerr_endline "compare: --format expects 'table' or 'json'";
            exit 2);
        parse rest
    | "--ceiling" :: spec :: rest ->
        (match parse_ceiling spec with
        | Some c -> ceilings := c :: !ceilings
        | None ->
            prerr_endline "compare: --ceiling expects NAME@N=NS with NS > 0";
            exit 2);
        parse rest
    | a :: rest ->
        paths := a :: !paths;
        parse rest
  in
  parse (List.tl args);
  match (List.rev !paths, List.rev !ceilings) with
  | [ current_path ], (_ :: _ as ceilings) -> (
      try check_ceilings ceilings current_path with
      | Parse m ->
          prerr_endline ("compare: " ^ m);
          exit 2
      | Sys_error m ->
          prerr_endline ("compare: " ^ m);
          exit 2)
  | [ baseline_path; current_path ], [] -> (
      try
        let baseline = records_of_file baseline_path in
        let current = records_of_file current_path in
        let rows = diff ~threshold:!threshold baseline current in
        (match !format with
        | `Table -> print_table ~threshold:!threshold rows
        | `Json -> print_json ~threshold:!threshold rows);
        print_offenders ~threshold:!threshold rows;
        exit (if List.exists (fun r -> failing r.status) rows then 1 else 0)
      with
      | Parse m ->
          prerr_endline ("compare: " ^ m);
          exit 2
      | Sys_error m ->
          prerr_endline ("compare: " ^ m);
          exit 2)
  | _ ->
      prerr_endline
        "usage: compare BASELINE.json CURRENT.json [--threshold PCT] [--format \
         table|json]\n\
        \       compare CURRENT.json --ceiling NAME@N=NS [--ceiling ...]";
      exit 2
