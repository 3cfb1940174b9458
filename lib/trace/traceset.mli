(** Explicit finite tracesets (section 3).

    A program denotes a set of traces of its individual threads.  The
    paper requires tracesets to be (i) prefix-closed, (ii) well-locked,
    and (iii) properly started.  Programs with unconstrained reads have
    infinite tracesets; this module is the {e explicit} representation
    used by the semantic-transformation checkers on bounded examples.
    The intensional representation (a membership oracle backed by the
    small-step semantics) lives in [Safeopt_lang.Denote].

    A traceset is a prefix trie: every trace is a root path, so
    membership walks one path and prefix closure holds by
    construction. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int

val mem : Trace.t -> t -> bool
val add : Trace.t -> t -> t
(** [add t s] adds [t] {e and all its prefixes} (preserving prefix
    closure). *)

val union : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
val of_list : Trace.t list -> t
(** Prefix closure of the given traces. *)

val to_list : t -> Trace.t list
(** All traces, shortest first, then lexicographic. *)

val children : Trace.t -> t -> (Action.t * t) list
(** [children p s]: every action [a] with [p @ [a]] in [s], ascending by
    {!Action.compare}, paired with the traceset of its continuations
    [{ t | p @ a :: t in s }].  Empty when [p] is not in [s]. *)

val maximal : t -> Trace.t list
(** The traces of [t] that are not strict prefixes of another trace of
    [t]. *)

val elements_of_thread : Thread_id.t -> t -> Trace.t list
(** Traces whose start action is [S(tid)] (plus the empty trace is
    excluded). *)

val thread_ids : t -> Thread_id.t list

val filter : (Trace.t -> bool) -> t -> t
(** [filter p s] keeps traces satisfying [p]; the result is re-prefix-
    closed, so this is mainly useful with prefix-closed predicates. *)

val map_traces : (Trace.t -> Trace.t) -> t -> t
(** Apply a function to every trace and re-close under prefixes. *)

val iter : (Trace.t -> unit) -> t -> unit
val fold : (Trace.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [iter] and [fold] visit traces in {!Trace.compare} order. *)

val pp : t Fmt.t

(** {1 Well-formedness (paper, section 3)} *)

val prefix_closed : t -> bool
val well_locked : t -> bool
val properly_started : t -> bool

val well_formed : t -> bool
(** Conjunction of the three conditions above. *)

val belongs_to : t -> Wildcard.t -> universe:Value.t list -> bool
(** [belongs_to s w ~universe]: do {e all} instances of [w] over
    [universe] lie in [s]?  This is the paper's "belongs-to" restricted
    to a finite value universe (see DESIGN.md on the small-model
    argument). *)

val locations : t -> Location.Set.t
val values : t -> Value.t list
(** All values occurring in actions of the traceset, sorted, distinct. *)
