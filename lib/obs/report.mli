(** Parsing, structural validation and summarisation of vod-obs JSONL
    traces (the inverse of {!Export}); backs `vodctl obs-report` and
    `vodctl simulate --obs-summary`. *)

type hist = { count : int; sum : int; buckets : (int * int) list }

type trace = {
  spans : Span.event list;  (** Completion order, as exported. *)
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * hist) list;
  dropped : int;  (** Ring-buffer evictions declared by the meta line. *)
}

val of_string : string -> (trace, string) result
(** Parse JSONL produced by {!Export.to_jsonl}.  The first line must be
    a meta event carrying the [vod-obs/1] schema. *)

val load : path:string -> (trace, string) result

val of_recorder : ?registry:Registry.t -> Span.recorder -> trace
(** Build the trace view directly from live objects (no serialisation)
    — what [--obs-summary] uses at end of run. *)

val validate : trace -> (unit, string) result
(** Structural invariants: unique non-negative span ids; [stop >= start]
    for every span (every stop has a matching start); parents are
    assigned before their children; a child's interval is contained in
    its parent's (no cross-parent overlap); a missing parent is only
    legal in a lossy (dropped > 0) trace; histogram bucket counts sum to
    the declared count. *)

type phase_row = {
  name : string;
  depth : int;  (** Nesting depth below a round span (0 = round). *)
  outside : bool;
      (** A root span outside every round: work the loop around the
          engine does between steps (the chaos and serve loops' [faults]
          and [repair] spans).  Depth 0; its share is against the same
          round total. *)
  count : int;
  total_ns : float;
  mean_ns : float;
  p50_ns : float;  (** Nearest-rank, via {!Vod_util.Stats}. *)
  p95_ns : float;
  max_ns : float;
  share : float;  (** Of total round (or root-span) time. *)
}

type summary = {
  rows : phase_row list;
      (** The round and its descendants by depth, then total time; then
          the [outside] rows by total time.  Rows group by name within
          each of the two parts. *)
  round_total_ns : float;
  top_level_coverage : float;
      (** Fraction of round time covered by the rounds' direct children
          — the "phase ns sum to within 10% of round ns" check. *)
  rounds : int;
  spans_recorded : int;
  spans_dropped : int;
}

val summarise : trace -> summary

val print_summary : trace -> unit
(** Print the per-phase table (and, when present, every counter and
    histogram) to stdout. *)

val one_line : Registry.t -> names:string list -> string
(** ["a=1 b=2"]-style rendering of the named counters — the smoke-test
    summary `vodctl check` appends to its verdict. *)
