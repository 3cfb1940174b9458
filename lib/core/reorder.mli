(** Semantic reorderings (paper, section 4).

    A bijection [f] on the indices of a (transformed) trace [t'] is a
    {e reordering function} for [t'] if whenever it inverts a pair
    ([i < j] but [f j < f i]), the later action is reorderable with the
    earlier one ([t'_j] reorderable with [t'_i]).  [f] maps positions
    of the transformed trace to positions of the original trace.

    [f] {e de-permutes} [t'] into a traceset [T] if additionally the
    de-permutation of every prefix of [t'] lies in [T]: take the first
    [n] elements of [t'] and arrange them by their [f]-images.

    A traceset [T'] is a {e reordering} of [T] if every trace of [T']
    has a function de-permuting it into [T]. *)

open Safeopt_trace

type f = int array
(** [f.(k)] is the original-trace position of the transformed trace's
    [k]-th action. *)

val is_permutation : f -> bool

val is_reordering_function : Location.Volatile.t -> Trace.t -> f -> bool
(** The inversion condition above (plus bijectivity). *)

val depermute_prefix : f -> Trace.t -> int -> Trace.t
(** [depermute_prefix f t' n]: the elements [t'_k] with [k < n],
    sorted by [f k] (the paper's de-permutation of length [n], after
    its prose reading "apply the permutation to a prefix of [t']";
    see DESIGN.md). *)

val depermute : f -> Trace.t -> Trace.t
(** [depermute_prefix f t' (length t')]: the reconstructed original
    trace. *)

val de_permutes :
  Location.Volatile.t -> f -> Trace.t -> mem:(Trace.t -> bool) -> bool
(** [f] is a reordering function for the trace and all prefix
    de-permutations are members of the original traceset. *)

val find :
  Location.Volatile.t -> Trace.t -> mem:(Trace.t -> bool) -> f option
(** Search for a de-permuting function by inserting each successive
    transformed action into the reconstructed original trace, pruning
    with the membership oracle and the reorderability condition. *)

val identity : int -> f

val is_reordering :
  Location.Volatile.t ->
  original:Traceset.t ->
  transformed:Traceset.t ->
  bool
(** Every trace of [transformed] de-permutes into [original]. *)

val find_undepermutable :
  Location.Volatile.t ->
  mem:(Trace.t -> bool) ->
  transformed:Traceset.t ->
  Trace.t option
(** The first transformed trace with no de-permuting function — the
    diagnostic behind a negative reordering check. *)

val is_reordering_of_oracle :
  Location.Volatile.t ->
  mem:(Trace.t -> bool) ->
  transformed:Traceset.t ->
  bool
(** As {!is_reordering} with an intensional original traceset — used
    with the elimination-closure oracle for Lemma 5 (syntactic
    reordering = elimination then reordering). *)

(** {1 The reorderability matrix (section 4)} *)

val matrix_headers : string list
(** ["W\[y\]"; "R\[y\]"; "Acq"; "Rel"; "Ext"]. *)

val matrix : same_location:bool -> bool array array
(** [matrix ~same_location] regenerates the paper's reorderability
    table: rows are the earlier action [a], columns the later action
    [b]; entry is [reorderable a b].  With [same_location = false] the
    two accesses touch distinct locations [x <> y] (the table's
    check-marked entries); with [true] they touch the same location
    (the [x = y] side conditions). *)

val pp_matrix : unit Fmt.t
(** Renders both tables in the paper's layout (for the bench harness
    and the CLI). *)
