(** A metrics registry: named counters, gauges and log-scale
    histograms, stripe-sharded so parallel domains record without
    contention; reads merge the stripes.

    Every metric's cells are striped by domain id ([Domain.self () mod
    stripes]), so concurrent recorders from a {!Safeopt_exec.Par} pool
    land on distinct cache lines in the common case.  Counter cells are
    atomic, so counter totals are {e exact} at any level of
    parallelism.  Gauge and histogram cells are plain mutable words
    (reads/writes are word-atomic, never torn, per the OCaml memory
    model); two domains whose ids collide modulo [stripes] can lose an
    update under simultaneous writes — acceptable for latency
    distributions and sampled depths, never used for verdicts.

    A process-global registry ({!global}) behind an enable flag
    ({!enabled}/{!set_enabled}) is the sink the instrumented layers
    record into; the flag read compiles to a load and a branch, so
    disabled instrumentation costs nothing measurable (see the
    [obs-overhead] bench mode). *)

type t
type counter
type gauge
type histogram

val create : ?stripes:int -> unit -> t
(** A fresh registry.  [stripes] (default 8) is rounded up to a power
    of two. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** Register (or look up) a counter by name.  Registration takes the
    registry mutex; hold on to the handle in hot paths. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges}

    A gauge keeps the last, minimum, maximum, sum and count of the
    recorded samples (per stripe; {!gauge_summary} folds stripes). *)

val gauge : t -> string -> gauge
val record : gauge -> float -> unit

type gauge_summary = {
  g_last : float;  (** last recorded sample (of the last active stripe) *)
  g_min : float;
  g_max : float;
  g_mean : float;
  g_count : int;
}

val gauge_summary : gauge -> gauge_summary option
(** [None] when nothing was recorded. *)

(** {1 Histograms}

    Log-scale latency histograms over seconds: bucket [0] holds
    sub-nanosecond samples, bucket [i > 0] holds samples in
    [[2^(i-1), 2^i)] nanoseconds.  64 buckets cover every
    representable duration. *)

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

val bucket_of : float -> int
(** The bucket index a sample in seconds falls into. *)

val bucket_bounds : int -> float * float
(** [(lo, hi)] in seconds: samples [s] with [lo <= s < hi] land in this
    bucket (bucket 0 has [lo = 0]). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (int * int) list
(** Non-empty buckets as [(index, count)], ascending. *)

val quantile : histogram -> float -> float option
(** [quantile h q]: an upper bound on the q-th quantile (the upper edge
    of the occupied bucket holding it); [None] when the histogram is
    empty.  [q] is clamped into [[0,1]]: [q = 0] answers from the first
    occupied bucket, [q = 1] from the last — never the edge of an empty
    tail bucket. *)

(** {1 Aggregation and rendering} *)

val merge : into:t -> t -> unit
(** Fold a registry into an accumulator: counters and histogram buckets
    add; gauges combine min/max/sum/count (the merged last is the
    source's when it recorded anything).  Metrics missing from [into]
    are registered.  Counter totals after merging per-worker registries
    equal the totals of a sequential run — the sharded-merge equality
    the tests pin. *)

val names : t -> string list
(** Registered names, in registration order. *)

val find_counter : t -> string -> int option
(** The value of a registered counter, by name. *)

val find_gauge : t -> string -> gauge_summary option
(** The summary of a registered gauge, by name; [None] when absent or
    never recorded. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

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
