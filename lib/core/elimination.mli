(** Semantic eliminations (paper, section 4).

    A trace [t'] is an {e elimination} of a wildcard trace [t] if
    [t' = t|S] for some [S] whose complement is eliminable in [t]
    (Definition 1).  A traceset [T'] is an elimination of a traceset
    [T] if every [t' in T'] is an elimination of some wildcard trace
    that belongs-to [T].

    Witnesses are explicit: a witness for [t'] is the wildcard trace
    [t] together with the kept index set [S]. *)

open Safeopt_trace

type witness = {
  wild : Wildcard.t;  (** the wildcard trace [t] belonging-to [T] *)
  kept : int list;  (** [S], increasing; [t' = t|S] *)
}

val pp_witness : witness Fmt.t

val check_witness :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  witness ->
  bool
(** Is the witness valid for [transformed] — i.e. [transformed =
    wild|kept] and every dropped index eliminable (properly eliminable
    if [proper], section 6.1)?  Does {e not} check belongs-to. *)

val embeddings :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  wild:Wildcard.t ->
  int list list
(** All kept-sets [S] making [wild] a witness for [transformed]. *)

val trace_elimination_of :
  ?proper:bool ->
  Location.Volatile.t ->
  transformed:Trace.t ->
  wild:Wildcard.t ->
  int list option
(** The first embedding, if any. *)

val generalisations :
  belongs_to:(Wildcard.t -> bool) -> Trace.t -> Wildcard.t list
(** All wildcard traces obtained from a concrete trace by replacing
    some subset of its read positions with wildcards, that still belong
    to the original traceset (per the supplied oracle).  Exponential in
    the number of reads; intended for the bounded checkers. *)

val find_witness :
  ?proper:bool ->
  Location.Volatile.t ->
  belongs_to:(Wildcard.t -> bool) ->
  candidates:Trace.t list ->
  transformed:Trace.t ->
  witness option
(** The first witness for [transformed], in this order: candidate
    original traces (typically the traces of [T]) of length at least
    [|transformed|], shortest first; for each, the concrete trace, then
    its generalisations in {!generalisations}' order; for each, the
    first of its {!embeddings}.  A generalisation is built lazily and
    handed to [belongs_to] only once it embeds [transformed]. *)

val is_elimination :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  transformed:Traceset.t ->
  bool
(** Is [transformed] an elimination of [original] (every transformed
    trace has a witness)? *)

val find_unwitnessed :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  transformed:Traceset.t ->
  Trace.t option
(** The first transformed trace with no elimination witness — the
    diagnostic behind a negative {!is_elimination}. *)

val is_member :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  Trace.t ->
  bool
(** Membership in the {e elimination closure} of [original]: does the
    given trace have a witness?  Used as the intermediate-traceset
    oracle when checking syntactic reorderings (Lemma 5: syntactic
    reordering = semantic elimination followed by semantic
    reordering). *)

val memoised_member :
  ?proper:bool ->
  Location.Volatile.t ->
  original:Traceset.t ->
  universe:Value.t list ->
  Trace.t ->
  bool
(** A memoising elimination-closure membership oracle over a fixed
    [original] traceset, equivalent to {!is_member} query by query.
    Partially applying the named arguments yields a closure whose memo
    tables (membership verdicts, the eliminability of each candidate
    trace and the belongs-to checks of its generalisations) are shared
    across queries — the shape every Lemma-5 reordering search wants,
    since [Reorder.find] probes the same intermediate traces over and
    over.  Used by the differential validator and the per-thread
    refinement checker.

    A query costs what it needs, not the size of [original]: a member
    of [original] answers at once, and otherwise the only candidates are
    the traces of [original]'s trie that a walk reaches by keeping the
    query's actions in order and skipping only actions that Definition 1
    can eliminate at all (never an acquire or a start). *)
