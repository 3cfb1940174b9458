(** End-to-end validation of the paper's theorems on explicit
    tracesets.

    Theorem 1 (elimination) and Theorem 2 (reordering) both have the
    shape: if [T] is data race free and [T'] is a transformation of
    [T], then [T'] is data race free and every execution of [T'] has
    the same behaviour as some execution of [T].  The {!check}
    functions verify all three conjuncts by exhaustive enumeration and
    report which (if any) fails, together with a counterexample. *)

open Safeopt_trace
open Safeopt_exec

type verdict = {
  original_drf : bool;
  transformed_drf : bool;
  behaviours_included : bool;
      (** behaviours(T') is a subset of behaviours(T) *)
  relation_holds : bool;
      (** the claimed traceset relation (elimination/reordering) was
          verified *)
  counterexample : Behaviour.t option;
      (** a behaviour of [T'] absent from [T], if any *)
}

val pp_verdict : verdict Fmt.t

val drf_guarantee_ok : verdict -> bool
(** The DRF guarantee as the paper states it: {e if} the original is
    DRF {e and} the relation holds, then behaviours are included and
    the transformed program is DRF.  Vacuously true when the original
    is racy or the relation fails. *)

val behaviour_subset :
  Behaviour.Set.t -> Behaviour.Set.t -> Behaviour.t option
(** [None] if the first is a subset of the second, otherwise a witness
    member of the difference. *)

val check_elimination :
  ?proper:bool ->
  ?max_states:int ->
  Location.Volatile.t ->
  original:Traceset.t ->
  transformed:Traceset.t ->
  universe:Value.t list ->
  verdict
(** Validate Theorem 1 on a concrete pair of tracesets. *)

val check_reordering :
  ?max_states:int ->
  Location.Volatile.t ->
  original:Traceset.t ->
  transformed:Traceset.t ->
  verdict
(** Validate Theorem 2. *)
