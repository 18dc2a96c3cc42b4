(** Metrics registry: named counters, gauges and log-scale histograms
    with O(1) hot-path recording.

    Handles ({!counter}, {!gauge}, {!histogram}) are found-or-created by
    name, typically once at module initialisation; recording through a
    handle is a single mutable-field update.  {!reset} zeroes values in
    place (handles stay live), so instrumented modules can register
    handles statically and CLI runs can still start from zero. *)

type counter
type gauge
type histogram
type t

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation hook
    records into. *)

val counter : t -> string -> counter
(** Find-or-create by name.  Counters, gauges and histograms live in
    separate namespaces. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : t -> string -> histogram
(** Log-scale (powers of two) histogram: bucket [i] counts values [v]
    with [2^i <= v < 2^(i+1)], bucket 0 absorbing [v <= 1].  One shape
    serves nanosecond timings and augmenting-path lengths alike. *)

val observe : histogram -> int -> unit
(** Record a non-negative value (negatives are clamped to 0).  O(log v). *)

val absorb : into:t -> t -> unit
(** Merge a whole registry into another, find-or-creating handles by
    name: counters and histograms accumulate (histograms bucket by
    bucket, count and sum preserved exactly),
    gauges keep the maximum of the two levels.  The parallel sweep
    runner gives each task a private registry and absorbs them into one
    after the join, so recording never needs synchronisation. *)

val reset : t -> unit
(** Zero every value in place; existing handles keep recording. *)

type hist_snapshot = {
  count : int;
  sum : int;
  buckets : (int * int) list;  (** Sparse [(exponent, count)] pairs. *)
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_histograms : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot
(** Name-sorted (hence deterministic) view of the current values. *)
