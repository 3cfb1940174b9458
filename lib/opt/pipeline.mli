(** The pass manager: a registry of first-class {!Pass.t}s, a spec
    parser for pipeline strings like ["cse;dse;load-hoist*"], and a
    driver that runs the passes in order with optional differential
    validation after every pass.

    Validation is the tool-level reading of the paper's composition
    results: each pass's output is checked against its input (original
    DRF implies transformed DRF with no new behaviour — Theorems 1–4
    for the safe passes), so a pipeline of validated steps composes by
    Lemma 5 into a validated whole.  A failing pass stops the pipeline
    and yields a structured {!Safeopt_core.Witness.t} naming the
    program pair and the concrete evidence — which is how the Fig. 3
    composition and the mutation-test passes are caught. *)

open Safeopt_lang
open Safeopt_exec

(** {1 Registry} *)

val registry : Pass.t list
(** Every syntactic pass in {!Passes}, wrapped with provenance, plus
    the deliberately unsafe control passes used by the mutation tests.
    Names are unique. *)

val find : string -> Pass.t option
(** Look up by name or alias ([cse] = [redundancy], [dse] =
    [dead-stores], [load-hoist] = [read-intro]). *)

val safe_names : string list
(** Names of the registered passes with [safe = true] — the pool the
    property tests draw random pipelines from. *)

(** {1 Pipeline specs} *)

type step = {
  pass : Pass.t;
  fixpoint : bool;  (** [*] suffix: iterate this pass until no change *)
}

type spec = step list

val parse : string -> (spec, string) Result.t
(** Grammar: [spec := name['*'] (';' name['*'])*] with optional blanks.
    Unknown names are reported with the list of known ones. *)

val pp_spec : spec Fmt.t

(** {1 Running} *)

type pass_stats = {
  ps_pass : string;  (** pass name *)
  ps_iterations : int;  (** runs performed (>1 only for [*] steps) *)
  ps_sites : Pass.site list;  (** provenance: every rewrite performed *)
  ps_validation : Validate.outcome option;
      (** differential outcome vs. this pass's input, when validating:
          carries the deciding rung ({!Validate.method_tag}), the
          refinement analysis and/or the exhaustive report *)
  ps_validation_wall : float;  (** seconds spent validating this pass *)
  ps_explorer : Explorer.stats;
      (** exploration work done by this pass's validation *)
}

val pp_pass_stats : pass_stats Fmt.t

type outcome = {
  final : Ast.program;
      (** the last {e accepted} program: on failure, the failing pass's
          output is rejected and [final] is its input *)
  steps : pass_stats list;  (** in execution order *)
  failure : (string * Ast.program Safeopt_core.Witness.t) option;
      (** the failing pass and its counterexample witness *)
}

val run :
  ?fuel:int ->
  ?max_states:int ->
  ?validate_each:bool ->
  ?max_iters:int ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?validator:Validate.validator ->
  ?model:Safeopt_model.Memory_model.t ->
  spec ->
  Ast.program ->
  outcome
(** Run the spec left to right.  A [*] step re-runs its pass until the
    program stops changing (or [max_iters], default 16, is hit).  With
    [validate_each] (default [false]), every pass's output is validated
    against its input under [validator] (default {!Validate.Auto},
    as on the command line: it climbs the static/refine/exhaustive
    ladder, its verdict always equals {!Validate.Exhaustive}'s, and the
    deciding rung is recorded in {!pass_stats.ps_validation}) and
    [model] (default [Sc]) — a pass
    that is safe under SC may be rejected under [Tso]/[Pso] when it
    manufactures a behaviour the weaker machine could not otherwise
    produce; the first failing pass aborts the
    pipeline with a witness.  A pass whose output equals its input is
    never validated (nothing to check).

    The run is one in-order fold at every job count: rewrite a step,
    validate it, stop at the first failure.  [jobs]/[pool] resolve one
    pool for the run, which every validation reuses to shard its two
    programs' explorations ({!Validate.run_validator}).  So the outcome,
    the counts and the trace are those of the one-domain run; only the
    pool size is added ([Explorer.stats.domains], where a validation
    explored).  Each step's ["pass"] span encloses its rewrite and its
    validation and closes with the step's verdict. *)

val pp_trace : outcome Fmt.t
(** The [--trace-passes] rendering: one block per executed pass with
    its sites, validation verdict and exploration stats, then the
    failure witness if any. *)
