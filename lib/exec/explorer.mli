(** The exploration engine.

    Every exhaustive analysis in the repository — behaviour enumeration,
    state counting, race and deadlock witness searches, TSO/PSO machine
    exploration — runs on one discovery loop followed, where a result is
    needed per state, by one memoised fold over the discovered graph.
    The loop is generic over the state, its digest and the transition
    labels; thread systems ({!System.t}) and explicit transition graphs
    ({!type-graph}) are two ways of feeding it.

    - {b Hash-consed, packed states.}  Scheduler states are digested to
      compact int tuples: thread-state keys are interned once per
      distinct thread configuration, shared memory and the monitor
      table once per distinct value.  The visited set stores digests
      in unboxed arenas ({!Par.Ptbl}), and each state's edges are one
      unboxed [int array] of (target, label) id pairs.

    - {b Persistent-set partial-order reduction.}  A state where one
      thread's enabled transitions are all local, as the system's
      {!System.t.local} says, expands that thread's transitions alone.
      The behaviour, state-count and race searches are reduced;
      {!find_deadlock}, the execution streams and the sampler are not.
      Reduced and full behaviour sets and DRF verdicts coincide;
      DESIGN.md §6.2 gives the argument.

    - {b One domain per exploration.}  The loop is a depth-first
      search in the calling domain; see {e Domains} below.

    - {b Streaming.}  Maximal executions are produced as a lazy
      {!Seq.t}, so consumers searching for a witness stop at the first
      hit instead of materialising the full (exponential) list.

    Analyses are exact for systems whose global state graph is finite
    and acyclic.  A cycle raises {!Cyclic}; exceeding the state budget
    raises {!Too_many_states}. *)

open Safeopt_trace

exception Cyclic
exception Too_many_states of int

val default_max_states : int

(** {1 Exploration statistics} *)

type stats = {
  mutable states : int;  (** distinct states visited *)
  mutable edges : int;  (** transitions traversed *)
  mutable memo_hits : int;  (** visits answered from the memo table *)
  mutable por_cuts : int;  (** transitions pruned by the reduction *)
  mutable peak_frontier : int;
      (** depth of the deepest state expanded, the root being 1: the
          depth of the depth-first search *)
  mutable wall : float;  (** accumulated wall-clock seconds (monotonic) *)
  mutable domains : int;
      (** largest pool a batch ({!batch_map}) ran on; 0 if every batch
          ran in one domain *)
}

val create_stats : unit -> stats
val reset_stats : stats -> unit

val merge_stats : into:stats -> stats -> unit
(** Aggregate one record into an accumulator: counters add,
    [peak_frontier] and [domains] take the maximum.  Every entry point
    counts into a fresh record and merges it into the caller's [?stats]
    record once, when the call ends, under the lock {!live_progress}
    reads. *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable rendering.  The [parallel: N domains] line is
    printed only when [domains > 0], i.e. when some batch ran on several
    domains. *)

val stats_fields : stats -> (string * Safeopt_obs.Json.t) list
(** The record as JSON fields (states, edges, memo_hits, por_cuts,
    peak_frontier, wall_s, domains): the heartbeat's progress object and
    the bench records' [explorer_stats]. *)

val publish : into:Safeopt_obs.Metrics.t -> stats -> unit
(** Record a finished record into a metrics registry ([explorer.*]
    counters and gauges, including its throughput
    [explorer.states_per_s]).  While [Metrics.enabled ()], every entry
    point publishes its own counts into [Metrics.global] when it ends;
    the [peak_frontier] and [domains] gauges then carry the caller's
    running maxima. *)

val of_registry : Safeopt_obs.Metrics.t -> stats
(** Read the [explorer.*] metrics of a registry back into a stats
    record (inverse of {!publish} on a fresh registry). *)

val live_progress : unit -> stats
(** A consistent point-in-time view of total exploration progress:
    everything already published into [Metrics.global] {e plus} the
    record of every entry point still in flight.  Safe to call from any
    domain — this is the heartbeat sampler's progress source.  A record
    leaves the in-flight set and is published under the same lock this
    reads, so consecutive calls are monotone in every cumulative
    counter, and after the run returns the view equals the registry
    alone.
    Meaningful only while [Metrics.enabled ()]. *)

val batch_map :
  ?stats:stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [batch_map ?stats ?jobs ?pool f xs] is [List.map f xs], sharded
    across the pool one item per job (claimed dynamically) when
    [jobs]/[pool] ask for several workers: the only way explorations
    run in parallel.  [?pool] (a caller-managed pool, reused across
    many batches) takes precedence over [?jobs] (a one-shot pool per
    call, resolved through {!Par.resolve_jobs}: [0] means all
    recommended cores).  Each job runs its explorations in its worker's
    domain; the pool is not re-entered from inside a worker.  The jobs
    may share the caller's record [stats] — every entry point merges
    into it under a lock — and a parallel run raises [stats.domains] to
    the pool size and, while [Metrics.enabled ()], records it into the
    [explorer.domains] gauge. *)

(** {1 Exhaustive analyses over thread systems}

    {2 Domains}

    Every exploration below runs in the domain that calls it, as one
    depth-first search on tables no other domain touches ({!Par.Ptbl},
    {!Par.Intern}) that expands each state's successors in the order
    they are generated.  Its results — behaviour sets, DRF verdicts,
    [Cyclic] / [Too_many_states] outcomes, the [states], [edges],
    [por_cuts] and [peak_frontier] counts, and the witness a search
    returns — are a function of the system alone.  Independent
    explorations run in parallel through {!batch_map}; each is still
    one domain's search. *)

val behaviours :
  ?max_states:int ->
  ?stats:stats ->
  'ts System.t ->
  Behaviour.Set.t
(** The set of behaviours of all executions.  Prefix-closed, and the
    same whatever the system's [local] predicate says (it must hold
    only for actions that commute with every other thread's steps, see
    {!System.t.local}). *)

val count_states :
  ?max_states:int ->
  ?stats:stats ->
  'ts System.t ->
  int
(** Number of distinct scheduler states explored: fewer where the
    system says some actions are [local]. *)

val behaviours_and_drf :
  ?max_states:int ->
  ?stats:stats ->
  Location.Volatile.t ->
  'ts System.t ->
  Behaviour.Set.t * bool
(** [(behaviours sys, find_adjacent_race vol sys = None)] from one
    exploration.  At each expanded state, every enabled transition,
    selected or not, goes through the race test: against the other
    threads' next steps in its successor.  Those steps are read off the
    source state; only a read or RMW of the location the transition
    writes is re-run against the written value.  No witness is kept:
    ask {!find_adjacent_race} for one once the verdict is racy. *)

val maximal_executions_seq :
  ?max_steps:int -> ?stats:stats -> 'ts System.t -> Interleaving.t Seq.t
(** All executions that cannot be extended, as a lazy stream in
    scheduler order.  Consuming a prefix only pays for the transitions
    actually traversed; [max_steps] bounds that number across the whole
    stream.  The stream is re-evaluable (each traversal restarts the
    search, re-counting steps). *)

val maximal_executions :
  ?max_steps:int -> ?stats:stats -> 'ts System.t -> Interleaving.t list
(** [List.of_seq (maximal_executions_seq ...)]. *)

val count_executions : ?max_steps:int -> ?stats:stats -> 'ts System.t -> int

val find_adjacent_race :
  ?max_states:int ->
  ?stats:stats ->
  Location.Volatile.t ->
  'ts System.t ->
  Interleaving.t option
(** A witness execution whose last two actions are adjacent conflicting
    accesses by different threads, and the only such pair in it, if
    one exists.  The search walks the graph {!behaviours_and_drf}
    explores, with the same race test, and stops at the first state
    that races: the witness is the path to it, the racing transition
    and the step it races with.  The search order is fixed, so the
    witness is too. *)

val find_deadlock :
  ?max_states:int -> ?stats:stats -> 'ts System.t -> Interleaving.t option
(** A witness execution reaching a state with no enabled transition
    while some thread still offers steps (blocked on a lock).  The
    search runs the one loop, unreduced, and stops at the first such
    state. *)

(** {1 Randomised sampling} *)

val sample_runs :
  ?max_actions:int -> seed:int -> runs:int -> 'ts System.t -> Behaviour.t Seq.t
(** A lazy stream of [runs] behaviours from a randomised scheduler.
    Run [i] derives its generator from [(seed, i)], so any prefix of the
    stream is deterministic and independent of how much is consumed. *)

val sample_behaviours :
  ?max_actions:int ->
  seed:int ->
  runs:int ->
  ?stats:stats ->
  'ts System.t ->
  Behaviour.Set.t
(** Prefix-closed union of {!sample_runs}.  Sound under-approximation of
    {!behaviours} for systems too large to enumerate. *)

(** {1 Generic graph exploration}

    For machines whose transition relation is not a {!System.t} — the
    TSO and PSO store-buffer machines — the same loop and fold run over
    an explicit graph. *)

type 'st graph = {
  graph_initial : 'st;
  graph_transitions : 'st -> (Action.t option * 'st) list;
      (** [None] labels an internal transition (e.g. a buffer drain). *)
  graph_digest : 'st -> int list;
      (** An injective int encoding of the state; the engine interns it. *)
}

val graph_behaviours :
  ?max_states:int ->
  ?stats:stats ->
  'st graph ->
  Behaviour.Set.t
(** [graph_behaviours g] is the prefix-closed behaviour set of the
    graph [g], memoised on the interned digest.  Raises {!Cyclic} /
    {!Too_many_states} as above.  The engine calls [graph_transitions]
    and [graph_digest] from the calling domain only, so tables the
    closures share need no locks ({!Par.Intern}). *)
