(** The seeded fuzz harness: generate → check → shrink → serialise.

    Every input is derived from [(seed, index)] via
    {!Vod_util.Prng.jump_to_stream}, so a reported failure is replayable
    exactly by re-running with the same seed; solver failures are
    additionally shrunk to a minimal instance and written to a repro
    file when a directory is supplied.  Run standalone through
    [vodctl check] or with a short budget through the [@fuzz] dune
    alias. *)

type failure = {
  seed : int;  (** Root seed of the run. *)
  index : int;  (** Instance / scenario index within the run. *)
  kind : string;  (** ["solver"] or ["scheduler(<label>)"]. *)
  detail : string;
  repro_path : string option;  (** Minimised instance file, when written. *)
}

type summary = {
  instances_checked : int;
  scenarios_checked : int;
  failure_rounds_certified : int;
      (** Engine failure rounds whose Hall certificates the checker
          independently confirmed (demand strictly above cut capacity). *)
  failures : failure list;
}

val shrink : still_fails:(Instance.t -> bool) -> Instance.t -> Instance.t
(** Greedy minimisation: repeatedly drop requests, drop edges, lower
    capacities and discard untouched boxes while [still_fails] holds.
    The result is locally minimal — no single such step keeps it
    failing.  Terminates because every accepted step strictly shrinks
    the instance. *)

val replay : path:string -> (int, string) result
(** Re-checks a repro file written by {!run} through the solver oracle;
    [Ok matched] means the bug no longer reproduces. *)

val run :
  ?seed:int ->
  ?instances:int ->
  ?scenarios:int ->
  ?rounds:int ->
  ?repro_dir:string ->
  unit ->
  summary
(** Checks [instances] random bipartite instances (default 1000) with
    the cross-solver oracle and [scenarios] simulator scenarios
    (default 12, [rounds] rounds each) with the cross-scheduler oracle. *)
