(** Whole-program sequentially consistent analysis.

    Thin wrappers tying {!Thread_system} to the unified exploration
    engine in [Safeopt_exec.Explorer]: behaviours, data-race freedom,
    executions — the paper's section-3 notions computed for concrete
    programs.  The behaviour, state-count and race searches run reduced
    by the program's thread-local actions (see {!Thread_system.make});
    {!find_deadlock} and the execution streams are not reduced.  Every
    analysis accepts an optional [stats] sink
    ({!Safeopt_exec.Explorer.stats}) that accumulates states visited,
    memo hits, POR cuts, peak frontier depth and wall time. *)

open Safeopt_trace
open Safeopt_exec

val behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  Behaviour.Set.t
(** All observable behaviours of all SC executions (prefix-closed). *)

val is_drf :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  bool
(** No execution has two adjacent conflicting accesses from different
    threads. *)

val find_race :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  Interleaving.t option
(** A witness racy execution, if any. *)

val behaviours_and_drf :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  Behaviour.Set.t * bool
(** [(behaviours p, is_drf p)] from one exploration: the two questions
    the DRF guarantee asks of a program under SC.  No witness is kept;
    {!find_race} gives one. *)

val maximal_executions :
  ?fuel:int -> ?max_steps:int -> ?stats:Explorer.stats -> Ast.program ->
  Interleaving.t list

val maximal_executions_seq :
  ?fuel:int -> ?max_steps:int -> ?stats:Explorer.stats -> Ast.program ->
  Interleaving.t Seq.t
(** Lazy stream of maximal executions; consumers searching for a
    witness can stop at the first hit without materialising the rest. *)

val count_states :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  int

val find_deadlock :
  ?fuel:int -> ?max_states:int -> ?stats:Explorer.stats -> Ast.program ->
  Interleaving.t option
(** A witness execution reaching a state where every thread is blocked
    on a lock (and at least one is not finished). *)

val sample_behaviours :
  ?fuel:int ->
  ?max_actions:int ->
  seed:int ->
  runs:int ->
  ?stats:Explorer.stats ->
  Ast.program ->
  Behaviour.Set.t
(** Randomised-scheduler under-approximation of {!behaviours}, for
    programs too large to enumerate exhaustively. *)

val can_output : ?fuel:int -> ?max_states:int -> Ast.program -> Value.t -> bool
(** Does any behaviour contain the given value? *)

val behaviour_strings : Behaviour.Set.t -> string list
(** Human-readable maximal behaviours, e.g. ["print 1; print 0"]. *)
