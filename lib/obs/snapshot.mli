(** The heartbeat sampler: live JSONL snapshots of a run in flight.

    A ticker domain wakes every [interval_ms], calls the caller's
    progress closure, and appends one versioned JSON line ({!schema})
    combining that progress view with a frozen {!Metrics.global}:

    {v
    {"schema":"heartbeat/v1","seq":3,"ts":12.04,
     "progress":{"states":48123,"edges":...,"states_per_s":52031.0},
     "metrics":{"counters":{...},"gauges":{...}}}
    v}

    The sampler {e pulls}: exploration hot loops are untouched, so a
    disabled heartbeat costs the instrumented code nothing at all (the
    [obs-overhead] bench pins {!enabled} at one flag read and zero
    allocation).  Snapshots are monotone in every cumulative counter
    when the progress closure reads a consistent view (see
    {!Safeopt_exec.Explorer.live_progress}: the registry plus every
    stats record still counting), and the final line written by
    {!stop} equals the end-of-run registry — [stop] samples once more
    after the run has published everything.

    One sampler runs per process, like the tracer's process-global
    sink; a second {!start} stops the first. *)

val schema : string
(** ["heartbeat/v1"]. *)

val start :
  ?path:string ->
  ?echo:bool ->
  interval_ms:int ->
  (unit -> (string * Json.t) list) ->
  unit
(** Spawn the ticker.  [path] appends one JSONL line per tick (flushed
    immediately, so a crashed run keeps its last heartbeat); [echo]
    rewrites a one-line progress summary on stderr for interactive
    runs.  The progress closure runs on the ticker domain — it must be
    safe to call concurrently with the run (word-atomic reads are
    enough; see the explorer's live tracker).  A derived
    ["states_per_s"] field (rate between consecutive ticks) is appended
    to the progress object. *)

val stop : unit -> unit
(** Join the ticker, take one final sample (so the last line equals the
    end-of-run registry), close the file.  No-op when not running. *)

val enabled : unit -> bool
(** One mutable flag read — the only cost at a disabled call site. *)

(** {1 Reading heartbeats back} *)

type line = {
  l_seq : int;
  l_ts : float;
  l_progress : (string * Json.t) list;
  l_metrics : Json.t;
}

val read_file : string -> (line list, string) result
(** Parse a heartbeat JSONL file; fails on the first malformed line
    with its line number. *)

val progress_int : line -> string -> int option
(** A progress field as an int ([states], [edges], ...). *)
