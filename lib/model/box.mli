(** Boxes: the peers of the system.  Each box has a normalised upload
    capacity [upload] (in video-stream units) and a storage capacity
    [storage] (in videos) dedicated to the static catalog, in addition
    to its playback cache. *)

type t = {
  id : int;
  upload : float;  (** u_b: upload capacity in stream units. *)
  storage : float;  (** d_b: catalog storage in videos. *)
}

val make : id:int -> upload:float -> storage:float -> t
(** @raise Invalid_argument on negative or non-finite capacities, or a
    negative id. *)

val storage_slots : c:int -> t -> int
(** Number of stripe replicas the box can store: [floor (d_b * c)]. *)

(** Population-level constructors and statistics. *)
module Fleet : sig
  type box = t
  type t = box array

  val homogeneous : n:int -> u:float -> d:float -> t
  (** All boxes share upload [u] and storage [d]. *)

  val proportional : n:int -> uploads:float array -> ratio:float -> t
  (** Heterogeneous uploads with [d_b = ratio * u_b] for every box —
      the paper's "proportionally heterogeneous" systems.
      @raise Invalid_argument when [uploads] has length <> n. *)

  val two_class :
    n:int -> rich_fraction:float -> u_rich:float -> u_poor:float -> d:float -> t
  (** A rich/poor split: the first [ceil (rich_fraction * n)] boxes are
      rich.  Storage is uniform.  Models the peer-assisted-server end of
      the spectrum. *)

  val dsl_mix : Vod_util.Prng.t -> n:int -> d:float -> t
  (** A realistic ISP access-network mix (shares of 0.25/0.5/1.0/2.0
      upload-to-bitrate ratios), replacing the proprietary subscriber
      data a deployment would calibrate on. *)

  val average_upload : t -> float
  val average_storage : t -> float
  val upload_deficit : t -> threshold:float -> float
  (** The upload deficit: sum over boxes with [u_b < u_star] of [u_star - u_b]. *)

  val rich_boxes : t -> threshold:float -> int list
  val poor_boxes : t -> threshold:float -> int list

  val is_storage_balanced : t -> threshold:float -> bool
  (** u_star-storage-balanced (Section 4): [2 <= d_b/u_b] and
      [d_b/u_b <= avg_d/u_star] for every box. *)
end
