(** The repo's one JSON codec.

    Every JSON artefact the tools write is built with [Printf] and
    every one they read back — streamed traces, chaos repro files,
    BENCH baselines — goes through {!parse}.  Writers quote strings
    with {!quote} and print floats with {!number}, so escaping and
    number formatting are defined once.  The parser takes the full
    JSON value grammar; [\u] escapes decode to UTF-8 (surrogate pairs
    are not joined — nothing here emits them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in source order *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed); [Error]
    carries a message with the byte offset. *)

(** {1 Accessors} — each returns [Error] with a path-less message on a
    shape mismatch, composing with [Result.bind]. *)

val member : string -> t -> (t, string) result
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_string : t -> (string, string) result
val to_list : t -> (t list, string) result
val to_bool : t -> (bool, string) result

(** {1 Writing} *)

val quote : string -> string
(** A JSON string literal, quotes included.  The double quote, the
    backslash, newline, tab and carriage return get their two-character
    escapes, every other control character a [\u00XX] escape; all
    other bytes pass through. *)

val number : float -> string
(** A float as a JSON number, ["%.12g"]: enough for the simulator's
    sums of C/P delays, and byte-stable.  NaN prints as [0] and an
    infinity as the largest finite double of its sign, so the output
    is always valid JSON. *)
