(** A metrics registry: named counters and gauges, one cell per metric.

    A counter is one atomic word, so counter totals are {e exact} at any
    level of parallelism: the workers of a {!Safeopt_exec.Par} pool
    count into the same cells as the calling domain.  A gauge keeps the
    last, minimum, maximum, sum and count of its samples in one record,
    updated under the registry's mutex.

    A process-global registry ({!global}) behind an enable flag
    ({!enabled}/{!set_enabled}) is the sink the instrumented layers
    record into; the flag read compiles to a load and a branch, so
    disabled instrumentation costs nothing measurable (see the
    [obs-overhead] bench mode). *)

type t
type counter
type gauge

val create : unit -> t
(** A fresh, empty registry. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** Register (or look up) a counter by name.  Registration takes the
    registry mutex; hold on to the handle in hot paths. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val record : gauge -> float -> unit

type gauge_summary = {
  g_last : float;  (** the last recorded sample *)
  g_min : float;
  g_max : float;
  g_mean : float;
  g_count : int;
}

val gauge_summary : gauge -> gauge_summary option
(** [None] when nothing was recorded. *)

(** {1 Reading and rendering} *)

val names : t -> string list
(** Registered names, in registration order. *)

val find_counter : t -> string -> int option
(** The value of a registered counter, by name. *)

val find_gauge : t -> string -> gauge_summary option
(** The summary of a registered gauge, by name; [None] when absent or
    never recorded. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}}]. *)

val pp : Format.formatter -> t -> unit
(** Human summary tree, grouped by dotted name prefix. *)

(** {1 The process-global registry} *)

val global : t

val enabled : unit -> bool
(** Whether the instrumented layers should record into {!global}.  A
    single mutable flag read — the disabled cost is one branch. *)

val set_enabled : bool -> unit

val reset_global : unit -> unit
(** Drop every metric registered in {!global} (tests and benches). *)
