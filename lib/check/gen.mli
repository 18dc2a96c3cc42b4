(** Random inputs for the differential verification harness.

    Everything is derived deterministically from the supplied PRNG, so a
    [(seed, index)] pair pins an instance or scenario exactly — the
    contract the fuzzer's repro messages rely on. *)

val instance :
  Vod_util.Prng.t ->
  ?max_left:int ->
  ?max_right:int ->
  ?max_cap:int ->
  unit ->
  Instance.t
(** A random bipartite matching instance.  Four shapes are drawn with
    equal probability — sparse, dense, single-hub (most requests share a
    few boxes: deep Hall violators) and tight (capacities mostly 0/1:
    shallow violators everywhere) — so both feasible and infeasible
    instances are common. *)

(** A complete simulator scenario: a system around the paper's [u = 1]
    threshold plus a pre-recorded demand script, replayable identically
    against engines under different schedulers. *)
type scenario = {
  label : string;  (** Human-readable provenance (sizes, scheme, workload). *)
  params : Vod_model.Params.t;
  fleet : Vod_model.Box.t array;
  alloc : Vod_model.Allocation.t;
  rounds : int;
  script : (int * int * int) list;  (** [(time, box, video)] demands. *)
}

val scenario : Vod_util.Prng.t -> ?rounds:int -> unit -> scenario
(** Draws system parameters with [u] straddling the threshold
    ([0.7 <= u <= 3.0]), an allocation via one of the four schemes
    (falling back to random permutation when a scheme cannot host the
    drawn catalog), and a demand script from one of seven generators:
    uniform, Zipf, flash-crowd, constant-rate, and the [uncovered],
    [tight-server-set] and [stampede] adversaries. *)
