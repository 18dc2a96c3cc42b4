(** Seedable retry backoff with per-key state, a delay cap and an
    optional attempt budget.

    One [t] tracks any number of integer keys (stripe ids, session
    ids...).  Each {!record_failure} bumps the key's attempt count and
    schedules the earliest round at which a retry may run:

    - {!Exponential} is jitterless and deterministic: the [a]-th
      failure schedules the retry [min cap (base * 2^(a-1))] rounds out
      — the repair controller's historical schedule, bit for bit;
    - {!Decorrelated_jitter} draws the delay uniformly from
      [[base, 3 * prev]] (capped), the AWS "decorrelated jitter"
      schedule, from the [t]'s own {!Prng} stream — seedable, so a run
      replays byte-identically and two [t]s never share draws.

    A key whose failures reach the budget is {e exhausted}: the caller
    must stop retrying it (shed the session, drop the transfer) until
    {!reset}.  All times are in rounds on the caller's clock — the
    module never reads a wall clock. *)

type policy = Exponential | Decorrelated_jitter

type t

val create : ?seed:int -> ?policy:policy -> ?budget:int -> base:int -> cap:int -> unit -> t
(** Defaults: [seed 42], [policy Exponential], unlimited budget.
    @raise Invalid_argument when [base < 1], [cap < base] or
    [budget < 1]. *)

type verdict =
  | Retry_at of int  (** Earliest round at which the retry may run. *)
  | Exhausted  (** The key just reached its budget: stop retrying. *)

val record_failure : t -> key:int -> time:int -> verdict
(** Count one failure of [key] at round [time] and schedule its
    retry.  Returns [Exhausted] when the budget is spent (the key stays
    exhausted until {!reset}). *)

val attempts : t -> key:int -> int
(** Failures recorded for [key] since its last {!reset}; 0 for unknown
    keys. *)

val exhausted : t -> key:int -> bool

val ready : t -> key:int -> time:int -> bool
(** [true] when [key] may run at round [time]: no failure on record, or
    its scheduled retry round has arrived and the budget is not spent. *)

val reset : t -> key:int -> unit
(** Forget [key] entirely (success, or the stripe healed without us). *)
