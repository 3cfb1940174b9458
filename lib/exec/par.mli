(** Domain parallelism for batches of independent explorations, and the
    hash-consing tables every exploration interns into.

    Built on the stdlib multicore primitives only ([Domain], [Atomic],
    [Mutex], [Condition]) — no external scheduler dependency.

    - {!Pool}: a fixed pool of worker domains reusable across many
      batches (spawning a domain is expensive; a pool amortises it over
      a corpus of explorations).  {!dispatch} is the one place a
      [?jobs]/[?pool] pair is resolved.
    - {!Intern} / {!Ptbl}: single-domain hash-consing.  [Intern] maps
      strings to dense ids; [Ptbl] packs int-array digests into an
      unboxed arena behind an open-addressing index table, with one
      mutable meta slot per entry for engine bookkeeping.

    Parallelism lives between explorations, never inside one: every
    exploration runs in the domain that asks for it, on tables no other
    domain touches, so its results — states, counts, witnesses — are
    the same whatever the pool size. *)

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

(** {1 Hash-consing tables}

    Both tables belong to the domain that creates them: they take no
    locks. *)

module Intern : sig
  type t

  val create : unit -> t

  val id : t -> string -> int
  (** Interning: equal strings get equal ids; fresh strings get the
      next id, so ids are dense in [0, number of strings). *)
end

(** Packed-arena digest table: the visited set of the exploration
    engine.  Digests are copied once into a bump-allocated unboxed
    [int array] arena and addressed through an open-addressing slot
    table (linear probing, offsets never move) — no per-state boxed
    key, no bucket cons cells.  Each entry carries one ['a] meta slot. *)
module Ptbl : sig
  type 'a t

  val create : dummy:'a -> unit -> 'a t
  (** [dummy] fills unused meta slots; it is never returned for an
      interned entry. *)

  val update : 'a t -> Ikey.t -> ('a option -> 'a * 'r) -> int * 'r
  (** [update t d f]: call [f None] if [d] is fresh (the returned meta
      is stored and [d] is assigned the next id, in insertion order) or
      [f (Some meta)] if present (the returned meta replaces the stored
      one).  Returns [d]'s id and [f]'s second component.  [f] must
      not re-enter the table. *)

  val intern : unit t -> Ikey.t -> int
  (** Plain hash-consing for tables with no per-entry bookkeeping. *)

  val iter : 'a t -> (int -> 'a -> unit) -> unit
  (** Iterate over every (id, meta) entry in id order. *)

  val length : 'a t -> int
end
