(** A minimal JSON value type with a printer and a parser.

    The telemetry layer is zero-dependency, so it carries its own JSON:
    just enough to serialise span/event/metric records to JSONL and to
    read them back for offline aggregation ({!Report}).  The parser
    accepts general JSON (objects, arrays, strings with escapes,
    numbers, booleans, null); it is not a validating parser for
    adversarial input — its job is round-tripping what {!to_string}
    wrote. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering.  Strings are escaped per JSON; control
    characters become [\uXXXX].  Non-finite floats (which JSON cannot
    represent) are rendered as [null]. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage after the value is an
    error.  Numbers without [.], [e] or [E] parse as {!Int}, the rest
    as {!Float}. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an {!Obj}; [None] on missing field or non-object. *)

val to_int : t -> int option
(** {!Int} directly; {!Float} when integral. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val equal : t -> t -> bool
