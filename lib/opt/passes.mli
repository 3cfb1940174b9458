(** Dataflow optimisation passes over the section-6 language.

    Two kinds of passes:

    - {e trace-preserving} register-level passes (constant and copy
      propagation).  They never add, drop or change a shared-memory
      access, so they are identity transformations in the trace
      semantics — the paper's observation that such optimisations are
      trivially safe (section 2.1, "trace preserving transformations");
    - {e rule-driven} redundancy elimination, computed as a fixpoint of
      the Fig. 10 rules, returning the rule chain that justifies the
      result.

    {!introduce_irrelevant_reads} and {!eliminate_reads_across_acquires}
    reproduce the paper's Fig. 3 pipeline: each step is individually
    defensible (the first preserves SC behaviour, the second is a
    legitimate Definition-1 elimination) but their composition breaks
    the DRF guarantee — the paper's "surprising limitation".

    {!Pipeline} drives the passes: its registry wraps each one with
    provenance, and its spec strings name them. *)

open Safeopt_lang

val constant_propagation : Ast.program -> Ast.program
(** Forward-propagate known register constants into register moves and
    test operands.  Trace-preserving. *)

val copy_propagation : Ast.program -> Ast.program
(** Replace uses of a register by its unkilled source register.
    Trace-preserving. *)

val eliminate_redundancy : Ast.program -> Ast.program * Transform.chain
(** Apply the Fig. 10 elimination rules to a fixpoint (first applicable
    instance each round); the returned chain justifies every step. *)

val reorder_fixpoint :
  prefer:string list -> Ast.program -> Ast.program * Transform.chain
(** Apply the named Fig. 11 rules (e.g. [\["R-WL"; "R-UW"\]] for roach
    motel) to a fixpoint. *)

val reorder_load_store : Ast.program -> Ast.program
(** Hoist a non-volatile store above an immediately preceding
    non-volatile load of a different location (Fig. 11 R-RW, plus the
    silent-move commutation needed for the desugared [x := n] pattern
    [Load; Move; Store]).  Safe under SC by Theorem 4 — but {b not}
    portable to TSO/PSO, where the hoisted store can be buffered and
    the pair observed out of order by another thread: on the [lb]
    litmus shape it manufactures the forbidden [r1 = r2 = 1] outcome.
    The portability matrix exists to catch exactly this pass. *)

val introduce_irrelevant_reads : Ast.program -> Ast.program
(** Prefix every thread that starts with a memory access with an
    irrelevant load of that location into a fresh dead register
    (Fig. 3, step (a) to (b)).  {b Not} one of the paper's safe
    transformations: preserves SC behaviour but can destroy data race
    freedom. *)

val e_rar_across_acquires : Rule.t
(** The rule behind {!eliminate_reads_across_acquires}, usable with the
    {!Transform} engine directly. *)

val eliminate_reads_across_acquires : Ast.program -> Ast.program
(** Redundant-read elimination whose window may cross lock
    acquisitions (but no release-acquire pair) — the elimination
    proposed for C++0x in the paper's citation [12] and used in Fig. 3
    step (b) to (c).  Justified by Definition 1 (which only forbids a
    {e release followed by an acquire} between the reads), though not
    by the conservative syntactic rule E-RAR. *)

val dead_moves : Ast.program -> Ast.program
(** Remove moves to registers that are dead afterwards.  Moves are
    silent, so this is trace-preserving. *)

val dead_loads : Ast.program -> Ast.program
(** Remove non-volatile loads into dead registers — irrelevant reads,
    whose removal is a Definition-1 clause-3 semantic elimination (safe
    under the DRF guarantee but {e not} trace-preserving).  A dead
    volatile load stays: it is an acquire, and no clause of
    Definition 1 eliminates one. *)

val dead_stores_cfg :
  Ast.program ->
  Ast.program
  * (Safeopt_trace.Thread_id.t * Safeopt_analysis.Cfg.path * Ast.stmt) list
(** Dead-store elimination across branches: remove a non-volatile store
    when a backward must-analysis over the thread CFG proves that every
    path from it reaches another store to the same location before any
    read of it, any synchronisation, or thread exit.  Each removal is
    an overwritten-write elimination (Definition 1 clause 5, rule
    E-WBW's semantic core) valid on {e every} execution because the
    window is sync-free on all paths — strictly stronger than the
    straight-line syntactic rule.  Returns the removed stores with
    their CFG paths as provenance. *)

val fold_branches : Ast.program -> Ast.program
(** Resolve conditionals and loops whose tests compare literals.
    Trace-preserving (COND/LOOP steps are silent). *)

val normalise : Ast.program -> Ast.program
(** Flatten blocks and drop skips.  Trace-preserving. *)

val unroll_loops : depth:int -> Ast.program -> Ast.program
(** Peel [depth] iterations off every loop ([while (T) S] becomes
    [if (T) { S; ... }] nests).  Trace-preserving — the paper's
    section-2.1 observation that loop unrolling is an identity in the
    trace semantics. *)
