(* Parse, validate and summarise vod-obs JSONL traces.

   Lines are read with {!Vod_json}, the stdlib-only reader
   bench/compare.ml shares.  Validation is structural: schema header,
   timestamp sanity, id uniqueness, parent-before-child, child
   intervals contained in their parent's, histogram bucket sums.
   The summary renders the per-phase time table `vodctl simulate
   --obs-summary` and `vodctl obs-report` print. *)

open Vod_util
open Vod_json

(* ------------------------------------------------------------------ *)
(* Trace model                                                         *)
(* ------------------------------------------------------------------ *)

type hist = { count : int; sum : int; buckets : (int * int) list }

type trace = {
  spans : Span.event list; (* completion order, as exported *)
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * hist) list;
  dropped : int;
}

let int_field key obj =
  match field key obj with Some (Num f) -> Some (int_of_float f) | _ -> None

let str_field key obj = match field key obj with Some (Str s) -> Some s | _ -> None

let span_of_line obj =
  match
    ( int_field "id" obj,
      int_field "parent" obj,
      str_field "name" obj,
      int_field "start_ns" obj,
      int_field "stop_ns" obj )
  with
  | Some id, Some parent, Some name, Some start_ns, Some stop_ns ->
      let attrs =
        match field "attrs" obj with
        | Some (Obj kvs) ->
            List.filter_map (function k, Str v -> Some (k, v) | _ -> None) kvs
        | _ -> []
      in
      Some { Span.id; parent; name; start_ns; stop_ns; attrs }
  | _ -> None

let of_string s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty trace"
  | meta :: rest -> (
      try
        let mobj = parse meta in
        (match str_field "type" mobj with
        | Some "meta" -> ()
        | _ -> raise (Parse "first line is not a meta event"));
        (match str_field "schema" mobj with
        | Some s when s = Export.schema -> ()
        | Some s -> raise (Parse ("unknown schema " ^ s))
        | None -> raise (Parse "meta event has no schema"));
        (* current traces say "dropped_spans"; pre-rename ones "dropped" *)
        let dropped =
          match int_field "dropped_spans" mobj with
          | Some d -> d
          | None -> Option.value ~default:0 (int_field "dropped" mobj)
        in
        let spans = ref []
        and counters = ref []
        and gauges = ref []
        and hists = ref [] in
        List.iteri
          (fun i line ->
            let obj = parse line in
            let bad what = raise (Parse (Printf.sprintf "line %d: %s" (i + 2) what)) in
            match str_field "type" obj with
            | Some "span" -> (
                match span_of_line obj with
                | Some e -> spans := e :: !spans
                | None -> bad "malformed span")
            | Some "counter" -> (
                match (str_field "name" obj, int_field "value" obj) with
                | Some n, Some v -> counters := (n, v) :: !counters
                | _ -> bad "malformed counter")
            | Some "gauge" -> (
                match (str_field "name" obj, int_field "value" obj) with
                | Some n, Some v -> gauges := (n, v) :: !gauges
                | _ -> bad "malformed gauge")
            | Some "hist" -> (
                match
                  (str_field "name" obj, int_field "count" obj, int_field "sum" obj)
                with
                | Some n, Some count, Some sum ->
                    let buckets =
                      match field "buckets" obj with
                      | Some (Arr items) ->
                          List.filter_map
                            (function
                              | Arr [ Num e; Num c ] ->
                                  Some (int_of_float e, int_of_float c)
                              | _ -> None)
                            items
                      | _ -> []
                    in
                    hists := (n, { count; sum; buckets }) :: !hists
                | _ -> bad "malformed hist")
            | Some other -> bad ("unknown event type " ^ other)
            | None -> bad "event has no type")
          rest;
        Ok
          {
            spans = List.rev !spans;
            counters = List.rev !counters;
            gauges = List.rev !gauges;
            hists = List.rev !hists;
            dropped;
          }
      with Parse m -> Error m)

let load ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error m -> Error m

let of_recorder ?registry recorder =
  let counters, gauges, hists =
    match registry with
    | None -> ([], [], [])
    | Some reg ->
        let s = Registry.snapshot reg in
        ( s.Registry.s_counters,
          s.Registry.s_gauges,
          List.map
            (fun (n, h) ->
              ( n,
                {
                  count = h.Registry.count;
                  sum = h.Registry.sum;
                  buckets = h.Registry.buckets;
                } ))
            s.Registry.s_histograms )
  in
  { spans = Span.events recorder; counters; gauges; hists; dropped = Span.dropped recorder }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate t =
  let ( let* ) = Result.bind in
  let check ok msg = if ok then Ok () else Error msg in
  (* index every id first: events are in completion order, so a child's
     enclosing span completes — and is exported — after the child *)
  let by_id = Hashtbl.create 256 in
  let* () =
    List.fold_left
      (fun acc (e : Span.event) ->
        let* () = acc in
        let* () = check (e.Span.id >= 0) (Printf.sprintf "span %d: negative id" e.Span.id) in
        let* () =
          check
            (not (Hashtbl.mem by_id e.Span.id))
            (Printf.sprintf "span %d: duplicate id" e.Span.id)
        in
        Hashtbl.add by_id e.Span.id e;
        Ok ())
      (Ok ()) t.spans
  in
  let* () =
    List.fold_left
      (fun acc (e : Span.event) ->
        let* () = acc in
        let* () =
          check
            (e.Span.stop_ns >= e.Span.start_ns)
            (Printf.sprintf "span %d (%s): stop before start" e.Span.id e.Span.name)
        in
        let* () =
          check
            (e.Span.parent < e.Span.id)
            (Printf.sprintf "span %d (%s): parent id %d not before child" e.Span.id
               e.Span.name e.Span.parent)
        in
        if e.Span.parent < 0 then Ok ()
        else
          match Hashtbl.find_opt by_id e.Span.parent with
          | Some (p : Span.event) ->
              (* a span starts no earlier and stops no later than the
                 span it nests under: no cross-parent overlap *)
              check
                (e.Span.start_ns >= p.Span.start_ns && e.Span.stop_ns <= p.Span.stop_ns)
                (Printf.sprintf "span %d (%s): interval escapes parent %d (%s)" e.Span.id
                   e.Span.name p.Span.id p.Span.name)
          | None ->
              (* tolerable only when the ring evicted events *)
              check (t.dropped > 0)
                (Printf.sprintf "span %d (%s): parent %d missing from a lossless trace"
                   e.Span.id e.Span.name e.Span.parent))
      (Ok ()) t.spans
  in
  List.fold_left
    (fun acc (name, h) ->
      let* () = acc in
      let bucket_total = List.fold_left (fun a (_, c) -> a + c) 0 h.buckets in
      let* () =
        check (bucket_total = h.count)
          (Printf.sprintf "hist %s: bucket counts sum to %d, count says %d" name
             bucket_total h.count)
      in
      check
        (List.for_all (fun (e, c) -> e >= 0 && e < 63 && c >= 0) h.buckets)
        (Printf.sprintf "hist %s: bucket exponent or count out of range" name))
    (Ok ()) t.hists

(* ------------------------------------------------------------------ *)
(* Per-phase summary                                                   *)
(* ------------------------------------------------------------------ *)

type phase_row = {
  name : string;
  depth : int; (* nesting depth below a round span; 0 = round itself *)
  outside : bool; (* a root span outside every round, after the round's rows *)
  count : int;
  total_ns : float;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  max_ns : float;
  share : float; (* of total round time (or of root time without rounds) *)
}

type summary = {
  rows : phase_row list;
  round_total_ns : float; (* reference total the shares are against *)
  top_level_coverage : float;
      (* fraction of round time covered by the round spans' direct
         children; meaningful only when round spans exist *)
  rounds : int;
  spans_recorded : int;
  spans_dropped : int;
}

let round_span_name = "round"

let summarise t =
  let by_id = Hashtbl.create 256 in
  List.iter (fun (e : Span.event) -> Hashtbl.replace by_id e.Span.id e) t.spans;
  (* Depth below the nearest enclosing round span: [Some 0] for a round
     span itself, [Some k] for a k-deep descendant, [None] when no round
     ancestor exists. *)
  let round_depth (e : Span.event) =
    let rec go (e : Span.event) acc =
      if e.Span.name = round_span_name then Some acc
      else if e.Span.parent < 0 || acc > 64 then None
      else
        match Hashtbl.find_opt by_id e.Span.parent with
        | Some p -> go p (acc + 1)
        | None -> None
    in
    go e 0
  in
  let have_rounds =
    List.exists (fun (e : Span.event) -> e.Span.name = round_span_name) t.spans
  in
  let is_root (e : Span.event) =
    e.Span.parent < 0 || not (Hashtbl.mem by_id e.Span.parent)
  in
  (* keyed by (name, outside): a chaos or serve loop's [repair] between
     rounds and a solver's [repair] inside one are different phases *)
  let groups : (string * bool, int * float list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : Span.event) ->
      (* with rounds: the round spans and their descendants, then the
         roots outside every round; without (e.g. a bench run driving
         the solvers directly): every span, grouped from the roots down *)
      let place =
        if have_rounds then
          match round_depth e with
          | Some d -> Some (d, false)
          | None -> if is_root e then Some (0, true) else None
        else if is_root e then Some (0, false)
        else Some (1, false)
      in
      match place with
      | None -> ()
      | Some (d, outside) ->
          let key = (e.Span.name, outside) in
          let dur = float_of_int (e.Span.stop_ns - e.Span.start_ns) in
          (match Hashtbl.find_opt groups key with
          | Some (d0, durs) ->
              durs := dur :: !durs;
              Hashtbl.replace groups key (min d0 d, durs)
          | None ->
              Hashtbl.add groups key (d, ref [ dur ]);
              order := key :: !order))
    t.spans;
  let order = List.rev !order in
  let round_total_ns, rounds =
    if have_rounds then
      List.fold_left
        (fun (acc, k) (e : Span.event) ->
          if e.Span.name = round_span_name then
            (acc +. float_of_int (e.Span.stop_ns - e.Span.start_ns), k + 1)
          else (acc, k))
        (0.0, 0) t.spans
    else
      ( List.fold_left
          (fun acc (e : Span.event) ->
            if e.Span.parent < 0 || not (Hashtbl.mem by_id e.Span.parent) then
              acc +. float_of_int (e.Span.stop_ns - e.Span.start_ns)
            else acc)
          0.0 t.spans,
        0 )
  in
  let top_level_coverage =
    if not have_rounds then 1.0
    else begin
      let covered =
        List.fold_left
          (fun acc (e : Span.event) ->
            match
              if e.Span.parent >= 0 then Hashtbl.find_opt by_id e.Span.parent else None
            with
            | Some (p : Span.event) when p.Span.name = round_span_name ->
                acc +. float_of_int (e.Span.stop_ns - e.Span.start_ns)
            | _ -> acc)
          0.0 t.spans
      in
      if round_total_ns <= 0.0 then 1.0 else covered /. round_total_ns
    end
  in
  let rows =
    List.map
      (fun ((name, outside) as key) ->
        let depth, durs = Hashtbl.find groups key in
        let xs = Array.of_list !durs in
        let total = Array.fold_left ( +. ) 0.0 xs in
        {
          name;
          depth;
          outside;
          count = Array.length xs;
          total_ns = total;
          mean_ns = Stats.mean xs;
          p50_ns = Stats.percentile_nearest_rank xs 50.0;
          p95_ns = Stats.percentile_nearest_rank xs 95.0;
          max_ns = Array.fold_left Float.max 0.0 xs;
          share = (if round_total_ns > 0.0 then total /. round_total_ns else 0.0);
        })
      order
    |> List.sort (fun a b ->
           if a.outside <> b.outside then compare a.outside b.outside
           else if a.depth <> b.depth then compare a.depth b.depth
           else compare b.total_ns a.total_ns)
  in
  {
    rows;
    round_total_ns;
    top_level_coverage;
    rounds;
    spans_recorded = List.length t.spans;
    spans_dropped = t.dropped;
  }

let us ns = ns /. 1e3

let print_summary t =
  let s = summarise t in
  Printf.printf "spans: %d recorded, %d dropped%s\n" s.spans_recorded s.spans_dropped
    (if s.rounds > 0 then Printf.sprintf ", %d rounds" s.rounds else "");
  if s.rows <> [] then begin
    let tbl =
      Table.create
        ~columns:
          [
            ("phase", Table.Left);
            ("count", Table.Right);
            ("total ms", Table.Right);
            ("share", Table.Right);
            ("mean us", Table.Right);
            ("p50 us", Table.Right);
            ("p95 us", Table.Right);
            ("max us", Table.Right);
          ]
    in
    List.iter
      (fun r ->
        Table.add_row tbl
          [
            String.make (2 * r.depth) ' ' ^ r.name;
            string_of_int r.count;
            Table.fmt_float ~decimals:3 (r.total_ns /. 1e6);
            Table.fmt_pct r.share;
            Table.fmt_float ~decimals:1 (us r.mean_ns);
            Table.fmt_float ~decimals:1 (us r.p50_ns);
            Table.fmt_float ~decimals:1 (us r.p95_ns);
            Table.fmt_float ~decimals:1 (us r.max_ns);
          ])
      s.rows;
    Table.print ~title:"Per-phase wall-clock attribution" tbl;
    if s.rounds > 0 then
      Printf.printf "phase coverage: top-level phases account for %s of round time\n"
        (Table.fmt_pct s.top_level_coverage)
  end;
  if t.counters <> [] then
    Printf.printf "counters: %s\n"
      (String.concat " "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) t.counters));
  List.iter
    (fun (n, (h : hist)) ->
      if h.count > 0 then
        Printf.printf "hist %s: count=%d sum=%d mean=%.1f\n" n h.count h.sum
          (float_of_int h.sum /. float_of_int h.count))
    t.hists

let one_line reg ~names =
  let s = Registry.snapshot reg in
  let value n = Option.value ~default:0 (List.assoc_opt n s.Registry.s_counters) in
  String.concat " " (List.map (fun n -> Printf.sprintf "%s=%d" n (value n)) names)
