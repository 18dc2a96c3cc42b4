(* Metrics registry: named counters, gauges and log-scale histograms.

   Handles are found-or-created once (a hashtable probe) and then
   recorded through with a single mutable-field update, so instrumented
   hot paths pay an [incr]-equivalent per event and nothing more.  The
   registry itself is never cleared — [reset] zeroes values in place so
   module-level handles held by instrumented code stay live. *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : int }

(* Log-scale histogram: bucket [i] counts values [v] with
   [2^i <= v < 2^(i+1)]; bucket 0 also absorbs [v <= 1].  63 buckets
   cover every non-negative OCaml int, so nanosecond timings and
   augmenting-path lengths share one shape. *)
let hist_buckets = 63

type histogram = {
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let default = create ()

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add t.counters name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_value = 0 } in
      Hashtbl.add t.gauges name g;
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = { h_counts = Array.make hist_buckets 0; h_count = 0; h_sum = 0 } in
      Hashtbl.add t.histograms name h;
      h

let bucket_of v =
  if v <= 1 then 0
  else begin
    let i = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      Stdlib.incr i
    done;
    !i
  end

let observe h v =
  let v = max 0 v in
  h.h_counts.(bucket_of v) <- h.h_counts.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

(* Every histogram has [hist_buckets] buckets. *)
let merge ~into h =
  Array.iteri (fun i c -> into.h_counts.(i) <- into.h_counts.(i) + c) h.h_counts;
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum + h.h_sum

(* Merge one registry into another, creating missing handles by name.
   Counters and histograms are additive; gauges are level samples with
   no meaningful sum, so the maximum observed level is kept — for the
   per-task registries of a parallel sweep that yields fleet peaks. *)
let absorb ~into src =
  Hashtbl.iter (fun name c -> add (counter into name) c.c_value) src.counters;
  Hashtbl.iter
    (fun name g ->
      let dst = gauge into name in
      if g.g_value > dst.g_value then dst.g_value <- g.g_value)
    src.gauges;
  Hashtbl.iter (fun name h -> merge ~into:(histogram into name) h) src.histograms

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0) t.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 hist_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0)
    t.histograms

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = { count : int; sum : int; buckets : (int * int) list }
(* [buckets] is the sparse list of [(exponent, count)] pairs. *)

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_histograms : (string * hist_snapshot) list;
}

let sorted_bindings tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  {
    s_counters = sorted_bindings t.counters (fun c -> c.c_value);
    s_gauges = sorted_bindings t.gauges (fun g -> g.g_value);
    s_histograms =
      sorted_bindings t.histograms (fun h ->
          let buckets = ref [] in
          for i = hist_buckets - 1 downto 0 do
            if h.h_counts.(i) > 0 then buckets := (i, h.h_counts.(i)) :: !buckets
          done;
          { count = h.h_count; sum = h.h_sum; buckets = !buckets });
  }
