(** Domain-parallel work-pool primitives for the exploration engine.

    Built on the stdlib multicore primitives only ([Domain], [Atomic],
    [Mutex], [Condition]) — no external scheduler dependency.  Four
    layers:

    - {!Pool}: a fixed pool of worker domains reusable across many
      parallel sections (spawning a domain is expensive; a pool
      amortises it over a corpus of explorations).
    - {!Deque}: a lock-free Chase–Lev work-stealing deque — the owner
      pushes and pops at the bottom (LIFO, cache-hot), thieves take at
      the top (FIFO, oldest and typically largest subtrees first).
    - {!Ws}: the work-stealing scheduler tying one deque per worker to
      an atomic in-flight termination protocol and a spin-then-park
      idle path — the substrate of the parallel state-space search.
    - {!Intern} / {!Ptbl}: concurrent hash-consing.  [Intern] is the
      sharded string table; [Ptbl] packs int-array digests into
      unboxed arenas behind striped open-addressing index tables, with
      one mutable meta slot per entry for engine bookkeeping.  Ids are
      drawn from an atomic counter: stable within a run (same key,
      same id), dense in [0, length)], but their numeric order varies
      between runs — they are only ever used for equality and array
      indexing, so every derived result (state counts, behaviour sets)
      is deterministic.

    Determinism contract: explorations built on these primitives visit
    the same state set and produce the same canonical result values at
    every pool size; only internal id assignment and witness-path
    {e choice} (where several witnesses exist) may differ. *)

val resolve_jobs : int -> int
(** [resolve_jobs 0] is [Domain.recommended_domain_count ()]; positive
    [n] is [n].  @raise Invalid_argument on negative input. *)

(** {1 Domain pool} *)

module Pool : sig
  type t

  val create : int -> t
  (** [create n] spawns [n - 1] worker domains (the caller participates
      as worker 0 in every {!run}).  [n <= 1] creates a pool that runs
      everything in the calling domain. *)

  val size : t -> int
  (** Total workers, caller included. *)

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f w] on every worker [w] in [0 .. size-1]
      (worker 0 is the calling domain) and returns when all have
      finished.  If any worker raises, the first exception is re-raised
      in the caller after the join.  Not reentrant: do not call [run]
      from inside [f].  A pool of size 1 just calls [f 0].  In larger
      pools, when the {!Safeopt_obs.Tracer} sink is live, each worker's
      participation is recorded as a ["pool.worker"] span on its own
      domain lane; with tracing disabled the job runs untouched. *)

  val map_list : t -> (int -> 'a -> 'b) -> 'a list -> 'b list
  (** Dynamic parallel map: elements are claimed one at a time from an
      atomic counter, so uneven task costs balance across workers.
      Results are returned in input order.  [f] receives the element
      index and the element. *)

  val shutdown : t -> unit
  (** Join all worker domains.  The pool must not be used afterwards. *)

  val with_pool : int -> (t -> 'a) -> 'a
  (** [with_pool jobs f]: create (after {!resolve_jobs}), run [f],
      always shutdown. *)
end

val dispatch :
  ?jobs:int ->
  ?pool:Pool.t ->
  seq:(unit -> 'a) ->
  par:(Pool.t -> 'a) ->
  unit ->
  'a
(** The one dispatcher behind every [?jobs ?pool] entry point: [?pool]
    wins over [?jobs]; a size-1 pool or a job count resolving to 1 runs
    [seq] — the sequential path, unchanged, paying no synchronisation.
    With [?jobs] (and no pool) a one-shot pool is created for the call
    and shut down afterwards. *)

(** {1 Chase–Lev work-stealing deque} *)

module Deque : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Owner only: push at the bottom.  Grows the (atomic-published)
      circular buffer by doubling when full; the old buffer is never
      mutated again, so in-flight steals validate safely. *)

  val pop : 'a t -> 'a option
  (** Owner only: pop at the bottom (LIFO).  On the last element the
      owner races pending thieves with a CAS on [top]. *)

  val steal : 'a t -> 'a option
  (** Any domain: take the oldest element (FIFO).  One CAS on [top] is
      the linearisation point; [None] means the deque looked empty or
      the CAS lost a race (callers just move to the next victim). *)

  val steal_half : 'a t -> into:'a t -> ('a * int) option
  (** Steal up to half of the victim's observed size — one CAS per
      element, never a single CAS over a range (a range-CAS is unsound
      against a concurrent owner [pop], which only synchronises on the
      very last element).  The first stolen element is returned to be
      processed immediately; the rest are pushed into [into] (the
      thief's own deque, whose owner the caller must be).  The [int] is
      the total number of elements taken. *)

  val size : 'a t -> int
  (** Racy size estimate: exact when called by the owner, a lower
      bound for thieves deciding whether a victim is worth a visit. *)
end

(** {1 Work-stealing scheduler} *)

module Ws : sig
  type 'a t

  val create : int -> 'a t
  (** [create nw]: one deque per worker [0 .. nw-1]. *)

  val seed : 'a t -> 'a -> unit
  (** Enqueue an initial item into worker 0's deque (before workers
      start). *)

  val run :
    'a t ->
    int ->
    ?on_wait:(float -> unit) ->
    ?on_steal:(int -> unit) ->
    ?on_peak:(int -> unit) ->
    ('a -> ('a -> unit) -> unit) ->
    unit
  (** [run t w f]: worker [w]'s loop.  Repeatedly pop the own deque and
      call [f item push], where [push] makes newly discovered work
      available (own deque, bottom).  An empty deque triggers one
      round-robin steal scan over the other workers ({!Deque.steal_half}
      per victim), then a bounded spin, then a park on a condition
      variable; pushers wake parked workers through a sleeper count, so
      the un-contended push path stays lock-free.  Returns when the
      in-flight counter hits zero (every discovered item processed) or
      when any worker raised — the exception aborts the scheduler
      (waking all waiters) and is re-raised from that worker's [run].

      [on_steal] fires per successful steal scan with the number of
      items taken; [on_peak] with the own deque size after each push;
      [on_wait] with the seconds spent parked (monotonic clock) — only
      for parks that wake up to more work, i.e. genuine starvation:
      termination and abort wakeups are bookkeeping, not contention,
      and are not counted. *)
end

(** {1 Sharded hash-consing tables} *)

module Intern : sig
  type t

  val create : unit -> t

  val create_local : unit -> t
  (** Single-table variant with the mutexes elided, for tables only
      one domain uses. *)

  val id : t -> string -> int
  (** Interning: equal strings get equal ids; fresh strings draw the
      next id from an atomic counter.  Thread-safe for {!create} tables
      (striped by hash, one mutex per stripe). *)
end

(** Packed-arena digest table: the visited-set of the exploration
    engine.  Digests are copied once into a bump-allocated unboxed
    [int array] arena and addressed through open-addressing slot
    tables (linear probing, offsets never move) — no per-state boxed
    key, no bucket cons cells.  Each entry carries one ['a] meta slot
    read-modified under the stripe lock. *)
module Ptbl : sig
  type 'a t

  val create : ?stripes:int -> dummy:'a -> unit -> 'a t
  (** Concurrent table: [stripes] (a power of two, default 64)
      independently locked shards.  [dummy] fills unused meta slots;
      it is never returned for an interned entry. *)

  val create_local : dummy:'a -> unit -> 'a t
  (** Single-stripe variant with the mutex elided — same packed
      layout for a lone worker, no synchronisation cost. *)

  val update : 'a t -> Ikey.t -> ('a option -> 'a * 'r) -> int * 'r
  (** [update t d f]: the one locked read-modify-write.  Under the
      stripe lock of digest [d], call [f None] if [d] is fresh (the
      returned meta is stored and [d] is assigned the next id) or
      [f (Some meta)] if present (the returned meta replaces the
      stored one).  Returns [d]'s id and [f]'s second component.
      [f] must be small and must not re-enter the table. *)

  val intern : unit t -> Ikey.t -> int
  (** Plain hash-consing for tables with no per-entry bookkeeping. *)

  val iter : 'a t -> (int -> 'a -> unit) -> unit
  (** Iterate over every (id, meta) entry.  Takes no locks: call only
      once all workers have joined. *)

  val length : 'a t -> int

  val words : 'a t -> int
  (** Arena occupancy: total packed digest words (including the
      per-entry length header) across all stripes. *)
end
