(** Aggregation of per-round reports into experiment-level summaries. *)

type t = {
  rounds : int;
  total_demands : int;
  total_served : int;
  total_unserved : int;
  failed_rounds : int;  (** Rounds with at least one unserved request. *)
  first_failure : int option;  (** Time of the first failed round. *)
  peak_active : int;
  mean_active : float;
  cache_share : float;
      (** Fraction of all served connections sourced from playback
          caches (swarming) rather than the static allocation. *)
  peak_busy : int;
}

val summarise : Engine.round_report list -> t

val to_csv : Engine.round_report list -> string
(** Header line then one line per report; columns follow
    {!Engine.report_fields} (currently
    [time,new_demands,active_requests,served,unserved,served_from_cache,rewired,cross_group,busy_boxes,offline_boxes,faulted,repair_active,repair_served]). *)

val all_served : t -> bool
val pp : Format.formatter -> t -> unit
