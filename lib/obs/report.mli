(** Offline aggregation of a JSONL event log: the engine behind
    [drfopt report FILE.jsonl].

    Matches span [End] events to their [Begin] by id, then reads the
    per-phase totals and self times from {!Profile.aggregate}, builds a
    per-pass table (spans named ["pass"], with iteration/site/verdict
    attributes merged from both ends of the span), and keeps the final
    value of every counter series. *)

type span_row = {
  sr_id : int;  (** the span id the end event was matched on *)
  sr_name : string;
  sr_domain : int;
  sr_start : float;
  sr_stop : float;  (** [nan] when the end event is missing *)
  sr_parent : int;
  sr_attrs : (string * Event.value) list;
      (** begin attrs, then end attrs (end wins on duplicate keys via
          [List.assoc] order — they are appended after) *)
}

type t = {
  events : int;
  spans : span_row list;  (** in begin order *)
  phases : Profile.agg list;
      (** {!Profile.aggregate}'s rows, total descending with the name as
          tie-break (deterministic whatever order spans were emitted
          in); an unclosed span is clamped to the last timestamp *)
  wall : float;  (** last timestamp seen *)
  counters : (string * float) list;
      (** final sample of each counter series, in first-seen order *)
}

val aggregate : Event.t list -> t

val read_file : string -> (Event.t list, string) result
(** Parse a JSONL event log; fails on the first malformed line with its
    line number. *)

val span_attr : span_row -> string -> Event.value option
(** Last binding wins, so end-side attributes shadow begin-side. *)

val pp : Format.formatter -> t -> unit
(** The [drfopt report] rendering: summary line, per-phase wall-time
    table, per-pass table (when ["pass"] spans exist), counters. *)
