(** Explicit tracesets as thread systems.

    A thread's state is its identifier paired with the trace it has
    issued so far; its possible next actions are the one-action
    extensions present in the (prefix-closed) traceset, except that from
    the empty trace a thread [i] may only issue its own start action
    [S(i)] (entry points, section 3).  Reads of the same location with
    different values are grouped into a single {!System.Read} step whose
    continuation checks membership of the extension.  A thread may
    offer several steps at once, so no action is {!System.t.local} and
    the explorer searches the full state graph. *)

open Safeopt_trace

val make : Traceset.t -> (Thread_id.t * Trace.t) System.t
(** Threads are the traceset's start-action entry points [0..n-1]; an
    entry point absent from the traceset yields a thread stuck at the
    empty trace. *)
