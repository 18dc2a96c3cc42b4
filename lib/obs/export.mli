(** JSONL serialisation of a recorded trace: one event per line — a
    meta header, then completed spans in completion order, then a
    snapshot of the metrics registry.  The inverse (parsing, structural
    validation, summary tables) lives in {!Report}. *)

val schema : string
(** ["vod-obs/1"]. *)

val escape : string -> string
(** The body of a JSON string literal holding these bytes: quote,
    backslash, newline and tab get their two-character escapes, other
    control bytes [\u00XX], and every other byte is copied.  The one
    escape every JSONL stream of the repository uses. *)

val to_jsonl : ?registry:Registry.t -> Span.recorder -> string
(** The full trace as JSONL; [registry]'s snapshot is appended when
    given. *)

val save : ?registry:Registry.t -> Span.recorder -> path:string -> unit
