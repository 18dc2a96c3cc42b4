(** Session-level control messages and the per-client state machine of
    the service layer.

    {!Protocol} realises the data plane (lookups, proposals, chunks);
    this module is the {e control} plane a long-running service speaks
    over it: a client {e session} asks to start a video ([Join]), the
    admission controller answers ([Grant], [Deny], [Retry_after]), the
    engine's first served stripe promotes it to streaming
    ([First_chunk]), and the session ends in exactly one of four
    terminal states ([Complete], a terminal [Deny], a [Shed_notice], or
    retry-budget exhaustion).

    The legal lifecycle is

    {v
    Arriving --Grant--> Admitted --First_chunk--> Streaming --Complete--> Completed
       |  \--Deny(terminal)--> Rejected                |
       |  \--Retry_after--> Retrying --Join--> Arriving|
       |  \--Shed_notice--> Shed   (also from Admitted, Streaming:
       |                            overload shedding / box loss)
    v}

    {!transition} is the single authority on legality: the service loop
    drives every session through it, so an illegal hop (e.g. a second
    admission of a streaming session) is a programming error caught at
    the state machine, never a silent double-count. *)

type state = Arriving | Admitted | Streaming | Completed | Retrying | Shed | Rejected

type deny_reason =
  | Box_offline  (** Retryable: the client's box may rejoin. *)
  | Box_busy  (** Retryable: the box is mid-playback. *)
  | No_capacity  (** Retryable: admission had no headroom or tokens. *)
  | Budget_exhausted  (** Terminal: the retry budget is spent. *)
  | Invalid  (** Terminal: box or video outside the system. *)

type msg =
  | Join of { session : int; box : int; video : int }
      (** Client -> controller: (re-)request admission. *)
  | Grant of { session : int; deadline : int }
      (** Controller -> client: admitted; first chunk due by [deadline]. *)
  | Deny of { session : int; reason : deny_reason }
      (** Controller -> client; terminal for [Budget_exhausted] and
          [Invalid], retryable (followed by a [Retry_after] while budget
          remains) for the other reasons. *)
  | Retry_after of { session : int; at : int; attempt : int }
      (** Controller -> client: backed off until round [at]. *)
  | First_chunk of { session : int; round : int }
      (** Engine -> session accounting: start-up completed. *)
  | Shed_notice of { session : int }
      (** Controller -> client: dropped by overload policy. *)
  | Complete of { session : int; round : int }
      (** Engine -> session accounting: playback finished. *)

val transition : state -> msg -> state option
(** The state after delivering [msg], or [None] when the hop is
    illegal from [state].  Retryable [Deny]s park the session in
    [Retrying] (awaiting its [Retry_after] schedule); a [Join] from
    [Retrying] re-enters [Arriving] — re-admission is idempotent, the
    session keeps its identity and is never double-counted. *)

val is_terminal : state -> bool
(** [Completed], [Shed] and [Rejected] accept no further messages. *)

val state_name : state -> string
(** Lowercase, for JSONL streams: ["arriving"], ["admitted"], ... *)
