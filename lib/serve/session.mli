(** Session-level control messages and the per-client state machine of
    the service layer.

    {!Protocol} realises the data plane (lookups, proposals, chunks);
    this module is the {e control} plane a long-running service speaks
    over it: a client {e session} asks to start a video ([Join]), the
    admission controller answers ([Grant], [Deny], [Retry_after]), the
    engine's first served stripe promotes it to streaming
    ([First_chunk]), and the session ends in exactly one of three
    terminal states: [Completed] ([Complete]), [Rejected] (a [Deny]:
    the retry budget spent on admission refusals, or a box or video
    outside the system) or [Shed] (a [Shed_notice]: overload, or the
    budget spent on load or fault losses).

    The legal lifecycle is

    {v
    Arriving --Grant--> Admitted --First_chunk--> Streaming --Complete--> Completed
     | | |                 |                         |
     | | \--Retry_after----+-------------------------+--> Retrying --Join--> Arriving
     | \----Deny----------------------------------------> Rejected
     \------Shed_notice----+-------------------------+--> Shed
    v}

    Every other (state, message) pair is illegal: in particular the
    three terminal states [Completed], [Rejected] and [Shed] accept no
    message.  {!transition} is the single authority on legality: the
    service loop drives every session through it, so an illegal hop
    (e.g. a second admission of a streaming session) is a programming
    error caught at the state machine, never a silent double-count.

    Messages carry no payload: the loop keeps the session's id, box,
    video and deadlines itself, and the state machine reads only the
    message's kind. *)

type state = Arriving | Admitted | Streaming | Completed | Retrying | Shed | Rejected

type msg =
  | Join  (** Client -> controller: re-request admission after a backoff. *)
  | Grant  (** Controller -> client: admitted; the start-up deadline runs. *)
  | Deny
      (** Controller -> client: refused for good (retry budget spent, or
          box or video outside the system). *)
  | Retry_after  (** Controller -> client: backed off until a later round. *)
  | First_chunk  (** Engine -> session accounting: start-up completed. *)
  | Shed_notice  (** Controller -> client: dropped by overload policy. *)
  | Complete  (** Engine -> session accounting: playback finished. *)

val transition : state -> msg -> state option
(** The state after delivering [msg], or [None] when the hop is not
    one of the diagram's.  A [Join] from [Retrying] re-enters
    [Arriving] — re-admission is idempotent, the session keeps its
    identity and is never double-counted. *)

val state_name : state -> string
(** Lowercase, for JSONL streams: ["arriving"], ["admitted"], ... *)
