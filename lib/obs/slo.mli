(** Multi-window SLO burn-rate evaluation over round-indexed windows.

    A {!spec} names an objective ("of the events counted per round, at
    most [target] may be bad") and two window sizes in rounds.  The
    evaluator is fed one [(bad, total)] pair per round and tracks the
    {e burn rate} of each window — the observed bad fraction divided by
    the target:

    {v burn(w) = (sum bad over w / sum total over w) / target v}

    A burn of 1.0 means the budget is being consumed exactly as fast as
    the objective allows; above 1.0 the window is burning.  Following
    the Google-SRE multi-window pattern, the state combines a fast
    window (quick detection, noisy) with a slow one (confirmation):

    - {b Breach}: both windows burn at or above 1.0;
    - {b Warning}: the fast window burns but the slow one does not
      (early signal), or only the slow window burns (long tail of an
      incident already fading from the fast window);
    - {b Ok}: otherwise.

    The round clock is the number of {!observe} calls — never wall
    time — so states, burn rates and the [vod-slo/1] lines built from
    them are byte-identical at any [--jobs].  Rounds with [total = 0]
    contribute nothing to either sum; a window with no events has burn
    0.  All serialised floats use fixed-point [%.4f]. *)

type state = Ok | Warning | Breach

type spec = {
  sp_name : string;
  sp_target : float;  (** allowed bad fraction, in (0, 1] *)
  sp_fast : int;  (** fast window, rounds *)
  sp_slow : int;  (** slow window, rounds *)
}

val spec : ?fast:int -> ?slow:int -> name:string -> target:float -> unit -> spec
(** Defaults: [fast = 100], [slow = 1000].  A window burns at a burn
    rate of 1.0 or more (the [breach_burn] of {!spec_json}).
    @raise Invalid_argument if [target] is outside (0, 1], a window
    size is < 1, or [fast >= slow]. *)

type t
(** A running evaluator for one spec. *)

val create : spec -> t
val spec_of : t -> spec

val observe : t -> bad:int -> total:int -> unit
(** Feed the next round.  Negative counts and [bad > total] are
    clamped. *)

val rounds : t -> int
(** Rounds observed so far. *)

val burn : t -> [ `Fast | `Slow ] -> float
(** Current burn rate of a window; 0 if its total is 0. *)

val state : t -> state

val state_name : state -> string
(** ["ok"], ["warning"], ["breach"]. *)

val burning_window : t -> string
(** Which window drives the current state: ["both"], ["fast"],
    ["slow"], or ["none"] when Ok. *)

type summary = {
  su_name : string;
  su_final : state;
  su_warn_rounds : int;  (** rounds spent in Warning *)
  su_breach_rounds : int;  (** rounds spent in Breach *)
  su_max_fast_burn : float;
  su_max_slow_burn : float;
}

val summary : t -> summary

val summary_json : summary -> string
(** One JSON object (no trailing newline), e.g.
    [{"name":"rejection","state":"ok","warn_rounds":0,"breach_rounds":0,
      "max_fast_burn":0.1250,"max_slow_burn":0.1250}] — the per-cell
    burn summary embedded in the battery scorecard. *)

(** {1 vod-slo/1 stream}

    Line builders for the verdict stream (no trailing newlines).  The
    emitter — {!Vod_fault.Chaos} — writes the meta line, then a verdict
    line for round 0 and for every round whose state differs from the
    previous round's, then one summary line per spec. *)

val spec_json : spec -> string
(** One spec as a JSON object (name, target, windows, threshold). *)

val verdict_json : t -> round:int -> string
(** [{"type":"slo","t":R,"name":N,"state":S,"window":W,
      "fast_burn":F,"slow_burn":F}]. *)

val summary_line : summary -> string
(** [{"type":"slo-summary", ...}] wrapping {!summary_json}'s fields. *)
