(** A small JSON reader, stdlib only: objects, arrays, strings (with
    the quote, backslash, slash, n, t and uXXXX escapes), numbers,
    [true], [false] and [null].  It reads what [Vod_obs.Export] and
    the bench record writers emit; a uXXXX escape above U+007F reads
    as a question mark. *)

type t =
  | Obj of (string * t) list  (** Members in file order. *)
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse of string
(** What went wrong and at which byte offset. *)

val parse : string -> t
(** The one value [s] holds, surrounded by nothing but whitespace.
    @raise Parse on anything else, including truncated input and
    nesting deeper than 512 levels. *)

val field : string -> t -> t option
(** [field key v] is member [key] of object [v]; [None] when [v] is
    not an object or has no such member. *)
