(** Helper fleets: plug-and-play spare-upload boxes (after the helpers
    of Zhang et al.'s peer-assisted VoD) appended to the base fleet.

    A helper contributes upload and a deterministically seeded slice of
    the static catalog but never watches anything — the engine marks it
    with {!Vod_sim.Engine.set_helper} so no demand generator drafts it.
    Helpers start {e offline}; a {!Plan.Helper_join} plugs the whole
    fleet in (per-box [Rejoin], replicas intact) and a
    {!Plan.Helper_leave} unplugs it (per-box [Crash]) — so a helper's
    departure is structurally the crash of a zero-demand box. *)

open Vod_model
open Vod_analysis

type fleet_spec = {
  count : int;  (** Boxes in the fleet. *)
  u : float;  (** Upload per helper, in stream units. *)
  d : float;  (** Storage per helper, in videos. *)
}

val ranges : base_n:int -> fleet_spec list -> (int * int) array
(** [(first_box, count)] per fleet: fleet [i] occupies the contiguous
    box range after the base fleet and all earlier fleets — the
    [?helpers] argument of {!Plan.compile}. *)

val extend_fleet : Box.Fleet.t -> fleet_spec list -> Box.Fleet.t
(** Append the helper boxes (ids continue the base numbering). *)

val seed_allocation : fleet:Box.Fleet.t -> c:int -> Allocation.t -> Allocation.t
(** Extend a base allocation over the full fleet: every helper fills all
    its storage slots with consecutive stripe ids, each fleet's boxes
    continuing where the previous stopped (mod the catalog).  Purely
    deterministic; base replica lists are unchanged, and helpers have no
    free slots (so the repair controller never targets them).
    @raise Invalid_argument when [fleet] is smaller than the base
    allocation's box count. *)

val extend_compensation : n:int -> Theorem2.compensation -> Theorem2.compensation
(** Widen a base-fleet compensation to [n] boxes: helpers get no relay
    ([-1]) and no reserved upload — they may start offline, so Theorem 2
    relaying must never route through them. *)
