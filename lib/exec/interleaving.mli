(** Interleavings and executions (paper, section 3).

    An interleaving is a sequence of (thread-identifier, action) pairs.
    An interleaving of a traceset [T] additionally (i) projects to traces
    of [T] on every thread, (ii) has thread identifiers matching start
    entry points, and (iii) respects mutual exclusion.  An {e execution}
    is a sequentially consistent interleaving: every read sees the most
    recent write (or the default value if there is none). *)

open Safeopt_trace

type pair = { tid : Thread_id.t; action : Action.t }
type t = pair list

val pair : Thread_id.t -> Action.t -> pair
val tid : pair -> Thread_id.t
val action : pair -> Action.t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val pp_pair : pair Fmt.t
val to_string : t -> string

val length : t -> int
val nth : t -> int -> pair
val dom : t -> int list
val prefixes : t -> t list
val restrict : t -> int list -> t

val threads : t -> Thread_id.t list
(** Thread identifiers appearing in the interleaving, sorted. *)

val trace_of : Thread_id.t -> t -> Trace.t
(** The trace of thread [tid]: [\[A(p) | p <- I. T(p) = tid\]]. *)

val thread_traces : t -> (Thread_id.t * Trace.t) list

val thread_index : t -> int -> int
(** [thread_index i k] is the index of [I_k] within the trace of its own
    thread, i.e. [|{j | j < k /\ T(I_j) = T(I_k)}|] (used to transport
    per-trace properties such as eliminability to interleavings). *)

val entry_points_ok : t -> bool
(** Every start action [S(e)] is performed by thread [e], every thread's
    trace is properly started, and no thread starts twice. *)

val respects_mutex : t -> bool
(** The lock condition of section 3: whenever [I_i = L\[m\]] by thread
    [theta], every {e other} thread has performed as many unlocks of [m]
    as locks of [m] before [i] (reentrant locking by the owner is
    permitted). *)

val well_locked : t -> bool
(** Every thread's trace is well-locked (no unlock without a lock). *)

val is_interleaving_of : Traceset.t -> t -> bool
(** Conditions (i)-(iii) above against an explicit traceset. *)

val sees_write : t -> int -> int -> bool
(** [sees_write i r w]: index [r] is a read, [w < r] is a write to the
    same location with the same value, and no write to that location
    lies strictly between them.  An RMW is both a read (of its read
    value) and a write (of its written value). *)

val sees_default : t -> int -> bool
(** [r] reads the default value and no earlier write to its location
    exists. *)

val sees_most_recent_write : t -> int -> bool
(** [r] sees the default value, or sees some write, or does not
    read. *)

val is_sequentially_consistent : t -> bool
(** All indices see the most recent write. *)

val is_execution_of : Traceset.t -> t -> bool
(** A sequentially consistent interleaving of the traceset. *)

val behaviour : t -> Value.t list
(** The observable behaviour: the sequence of values of external actions
    in interleaving order. *)

val memory_after : t -> Value.t Location.Map.t
(** Final memory: last written value per location (locations never
    written are absent; their value is the default). *)

(** {1 Wildcard interleavings (section 4)}

    A wildcard interleaving may contain wildcard reads; its {e instance}
    is unique: each wildcard read is resolved to the value of the most
    recent write before it (or the default value). *)

module Wild : sig
  type wpair = { tid : Thread_id.t; elt : Wildcard.elt }
  type wt = wpair list

  val pp : wt Fmt.t
  val length : wt -> int
  val trace_of : Thread_id.t -> wt -> Wildcard.t
  val thread_index : wt -> int -> int
  val instance : wt -> t
  (** The unique instance (section 4): wildcards resolved to the most
      recent write's value, or the default. *)
end
