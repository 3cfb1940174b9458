(** The span/event tracer behind a process-global sink.

    When no sink is installed ({!enabled} is false) every entry point is
    a no-op guarded by a single flag read — callers write

    {[
      let sp = if Tracer.enabled () then Tracer.span "pass" else Tracer.none in
      ...
      Tracer.close_span sp
    ]}

    and pay one load and one branch per site when tracing is off; no
    closure is allocated (the [obs-overhead] bench mode pins this).

    Spans are plain ints ({!none} = [-1]); {!close_span} on {!none} is
    free.  Events carry monotonic timestamps relative to {!start}, the
    recording domain's id, and optional key/value attributes.  Events
    are appended to a mutex-protected in-memory buffer — the tracer is
    safe to use from every domain of a {!Safeopt_exec.Par} pool — and
    written out at {!stop}. *)

type span = int

val none : span
(** The absent span: closing it is a no-op; using it as [parent] means
    "no parent". *)

type format = Jsonl | Chrome_trace

type sink =
  | File of { path : string; format : format }
      (** write the buffered events to [path] at {!stop} *)
  | Memory  (** keep them for {!stop} to return (tests, benches) *)

val start : sink -> unit
(** Install a sink and reset the event buffer, span-id counter and
    clock origin.  Tracing is enabled until {!stop}. *)

val stop : unit -> Event.t list
(** Disable tracing, flush the sink (writing the file for [File] sinks)
    and return the buffered events in emission order.  A no-op returning
    [[]] when no sink is installed. *)

val enabled : unit -> bool
(** One mutable flag read; the only cost at a disabled call site. *)

(** {1 Recording}

    All of these are no-ops (beyond the flag branch) when disabled. *)

val span : ?parent:span -> ?attrs:(string * Event.value) list -> string -> span
(** Open a span: emits a [Begin] event, returns the id to close. *)

val close_span : ?attrs:(string * Event.value) list -> span -> unit
(** Emit the matching [End] event.  Attributes given here are attached
    to the end event (results: counts, verdicts). *)

val counter : string -> float -> unit
(** Emit a [Counter] sample (a timestamped value, e.g. queue depth). *)

val with_span :
  ?attrs:(unit -> (string * Event.value) list) ->
  result:('a -> (string * Event.value) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name ~attrs ~result f] runs [f] inside a span: the begin
    event carries [attrs ()] and the end event [result r].  An exception
    closes the span with an ["error"] attribute and is re-raised.  When
    disabled it is [f ()]: neither attribute function runs.  Allocates
    closures — for cold paths (a pipeline, a pass, a validation, a
    litmus test, a portability cell); hot paths use {!span} and
    {!close_span} directly. *)
