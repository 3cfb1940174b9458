(** The pass × memory-model portability matrix.

    The paper proves its transformations safe against the SC-based DRF
    guarantee; hardware models weaken the criterion in one direction
    (racy programs get defined machine behaviour instead of catching
    fire) and strengthen it in another (the machine itself reorders, so
    a compiler reordering that SC absorbs can become observable).  The
    matrix makes that portability boundary concrete: every registered
    pass is applied to every litmus-corpus program, and each changed
    program pair is differentially validated under each model — a cell
    is the corpus-relative verdict for one (pass, model) pair.

    The flagship asymmetry: [store-load-reorder] (Fig. 11 R-RW) is safe
    under SC by Theorem 4 but unsafe under TSO/PSO, where hoisting a
    store above a load lets the store buffer expose the reordering —
    on the [lb] shape it manufactures the SC-forbidden [r1 = r2 = 1]. *)

open Safeopt_lang
open Safeopt_exec
module Model = Safeopt_model.Memory_model

type unsafe_evidence = {
  u_test : string;  (** first corpus test exhibiting the violation *)
  u_witness : Ast.program Safeopt_core.Witness.t;
      (** structured counterexample; names the model *)
  u_behaviour : Behaviour.t option;
      (** the manufactured behaviour, when the evidence is one *)
  u_replayed : bool;
      (** the behaviour was independently re-enumerated: present in
          the transformed program, absent in the original, under the
          cell's model *)
}

type verdict =
  | Safe  (** every changed corpus program validates under the model *)
  | Unsafe of unsafe_evidence
  | Inert  (** the pass rewrote no corpus program — no evidence either way *)

type cell = {
  c_pass : string;
  c_model : Model.t;
  c_verdict : verdict;
  c_checked : int;  (** corpus programs the pass actually changed *)
}

type matrix = {
  passes : string list;
  models : Model.t list;
  tests : string list;
  cells : cell list;  (** one per pass × model, in sweep order *)
}

val sweep :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?passes:Safeopt_opt.Pass.t list ->
  ?models:Model.t list ->
  ?tests:Litmus.t list ->
  unit ->
  matrix
(** Build the matrix: defaults sweep the whole {!Safeopt_opt.Pipeline}
    registry over {!Model.all} and {!Corpus.all}.  Each pass's rewrite
    is applied once per test (it is model-independent); each changed
    pair is validated per model with {!Safeopt_opt.Validate.Auto} —
    whose verdict equals model-exhaustive enumeration — stopping at the
    first failing test.  Verdicts are corpus-relative: [Safe] is "no
    corpus counterexample", not a proof.  [jobs]/[pool] shard the
    cells across domains, one (pass, model) cell per batch job
    ({!Explorer.batch_map}); the matrix is unchanged. *)

val cell : matrix -> pass:string -> model:Model.t -> cell option
val unsafe_cells : matrix -> (cell * unsafe_evidence) list
val verdict_tag : verdict -> string
(** ["safe"], ["unsafe"] or ["inert"]. *)

val pp_verdict : verdict Fmt.t
val pp : matrix Fmt.t
(** The table: one row per pass, one column per model. *)

val pp_witnesses : matrix Fmt.t
(** Every unsafe cell's counterexample, with its replay status. *)

(** {1 Section 8: weak behaviours explained by transformations} *)

val explaining_rules : Model.t -> string list
(** The rules whose SC rewrites should reproduce the model's weak
    behaviours (paper, section 8): none for [Sc]; R-WR (write-read
    reordering) and E-RAW (store-to-load forwarding) for [Tso]; R-WW
    as well for [Pso], whose per-location buffers also reorder
    writes. *)

val explained_by_transformations :
  ?fuel:int ->
  ?max_states:int ->
  ?max_programs:int ->
  ?weak:Behaviour.Set.t ->
  Model.t ->
  Ast.program ->
  bool
(** The section-8 claim, checked per program: every behaviour of the
    program under the model is an SC behaviour of some program
    reachable from it through {!explaining_rules} (at most
    [max_programs], default 2000).  Decided as "every weak behaviour is
    an SC behaviour of some rewrite", which is the same inclusion.
    [weak], when given, must be {!Model.weak_behaviours} of the program
    at the same fuel; passing it saves enumerating the model again. *)
