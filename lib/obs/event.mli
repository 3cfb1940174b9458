(** One trace event: a span begin/end, an instant marker, or a counter
    sample.

    Serialised as one compact JSON object per line (JSONL) with short
    keys, omitting defaults:

    {v
    {"k":"b","name":"pass","id":3,"par":1,"dom":0,"ts":0.000123,
     "at":{"pass":"cse"}}
    v}

    - ["k"]: ["b"] begin, ["e"] end, ["i"] instant, ["c"] counter
    - ["name"]: span or counter name (present on begin/instant/counter;
      omitted on end, which is matched to its begin by ["id"])
    - ["id"]: span id (begin/end only)
    - ["par"]: parent span id (omitted when the span has no parent)
    - ["dom"]: domain id (omitted when 0)
    - ["ts"]: seconds since the sink was started (monotonic clock)
    - ["at"]: key/value attributes (omitted when empty) *)

type kind = Begin | End | Instant | Counter

type value = Str of string | Int of int | Float of float | Bool of bool

type t = {
  kind : kind;
  name : string;  (** empty on [End] *)
  id : int;  (** span id; [-1] on [Instant]/[Counter] *)
  parent : int;  (** parent span id; [-1] for none *)
  domain : int;
  ts : float;  (** seconds since sink start *)
  attrs : (string * value) list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val value_to_json : value -> Json.t
