(** Abstract thread systems.

    The execution-enumeration engine ({!Explorer}) is parametric in how
    threads produce their actions, so that both explicit tracesets
    ({!Traceset_system}) and the small-step semantics of the section-6
    language ([Safeopt_lang.Thread_system]) plug into the same exhaustive
    scheduler.

    A thread offers {e steps}.  Reads are offered as a location together
    with a continuation: in a sequentially consistent execution a read
    must see the most recent write, so the scheduler computes that value
    and asks the thread whether it can read it.  This keeps enumeration
    free of any "guess a value" blow-up. *)

open Safeopt_trace

type 'ts step =
  | Emit of Action.t * 'ts
      (** An unconditional action (write, lock, unlock, external, start).
          Must not be used for reads. *)
  | Read of Location.t * (Value.t -> 'ts option)
      (** A read of the given location; the continuation receives the
          value supplied by the scheduler and declines it with [None]. *)
  | Rmw of Location.t * (Value.t -> (Value.t * 'ts) list)
      (** An atomic read-modify-write of the given location: the
          continuation receives the current value and returns the
          possible (written value, successor state) outcomes — [[]] to
          decline, a list to allow nondeterministic systems (explicit
          tracesets) to offer several.  The scheduler performs the read
          and the write in one indivisible transition, emitting
          [Action.Rmw (l, read, written)]. *)

type 'ts t = {
  initial : 'ts list;  (** One state per thread; index = thread id. *)
  steps : 'ts -> 'ts step list;
      (** Thread-local possibilities from a state. *)
  key : 'ts -> string;
      (** A canonical key for memoisation: two states with the same key
          must have the same future.  The engines intern it once per
          thread step, so it should be cheap: build it with {!encode},
          not by printing the state. *)
  local : Action.t -> bool;
      (** The actions that commute with every other thread's steps and
          never race: starts, and accesses to locations no other thread
          touches.  {!Explorer} expands a state's persistent set from
          it: a thread whose enabled transitions are all local is
          expanded alone.  That is sound only if each thread state offers
          at most one step, so a system whose threads may offer several
          answers [false] throughout and is explored in full. *)
}
(** A system is explored by one domain at a time: {!Explorer} runs each
    exploration in the domain that asks for it, and parallel batches
    build one system per job.  So the closures may keep unsynchronised
    state, such as a [lazy] that [local] forces on its first call. *)

val encode : 'a -> string
(** [encode v] is a binary key of [v]'s structure: one
    [Marshal.to_string] without sharing, so structurally equal values
    get equal keys and different values different keys.  Keys are
    compared, hashed and interned, never decoded, and never leave the
    process (the format may change between compiler versions).  [v]
    must be immutable, acyclic and canonical — equal meanings must have
    equal structure.  Bindings therefore go in as lists in key order,
    never as a [Map] or [Set]: the tree shape of those depends on the
    order of insertion.  Closures, and mutable or abstract values, must
    not occur in [v]. *)
