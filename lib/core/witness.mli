(** Structured counterexample witnesses for failed transformations.

    When a validation step rejects a transformation, the caller needs
    more than a boolean: it needs the program pair that failed and the
    concrete evidence — a behaviour of the transformed program the
    original cannot produce, a racy interleaving introduced by the
    transformation, or a transformed trace with no semantic
    elimination/reordering justification (the §4/§6 relation checks).

    The type is polymorphic in the program representation: the
    traceset-level validators instantiate ['p] with
    {!Safeopt_trace.Traceset.t}, the program-level pipeline with
    [Safeopt_lang.Ast.program]. *)

open Safeopt_trace
open Safeopt_exec

type evidence =
  | New_behaviour of Behaviour.t
      (** an observable behaviour of the transformed program that the
          original lacks — the DRF guarantee's behaviour clause fails *)
  | Race_introduced of Interleaving.t
      (** a racy execution of the transformed program although the
          original is data race free — DRF preservation fails *)
  | Relation_failure of Trace.t
      (** a transformed trace with no elimination embedding / no
          de-permuting function into the original's traceset *)

type 'p t = {
  original : 'p;  (** the program (or traceset) before the failing step *)
  transformed : 'p;  (** the rejected result *)
  evidence : evidence;
  model : Safeopt_model.Memory_model.t;
      (** the memory model the evidence was observed under: behaviours
          and races are model-relative, so a counterexample must name
          its backend to be replayable *)
}

val make :
  ?model:Safeopt_model.Memory_model.t ->
  original:'p ->
  transformed:'p ->
  evidence ->
  'p t
(** [model] defaults to [Sc]. *)

val pp_evidence : evidence Fmt.t

val pp : 'p Fmt.t -> 'p t Fmt.t
(** [pp pp_program] renders the pair and the evidence. *)

val map : ('p -> 'q) -> 'p t -> 'q t
