(** Robustness enforcement: compile-for-TSO by restoring data race
    freedom.

    The DRF guarantee transported to hardware (paper, sections 1 and 8):
    a data-race-free program has no observable store-buffering weakness,
    because every TSO reordering is covered by the safe transformations
    and those cannot change DRF behaviours.  So the cheapest way to
    make a program SC-on-TSO is to make it DRF — here by promoting
    raced locations to volatile (compilers would emit fences or
    lock-prefixed instructions for those accesses; in the paper's
    language, volatility is exactly that annotation).

    {!enforce} iterates the race detector: each witness execution ends
    in an adjacent conflicting pair on some location; that location is
    promoted and the search repeats until the program is DRF.  This is
    a coarse but sound fence-inference (a delay-set analysis would be
    finer-grained); minimality is not guaranteed. *)

open Safeopt_trace
open Safeopt_lang

val raced_location :
  ?fuel:int -> ?max_states:int -> Ast.program -> Location.t option
(** The location of the adjacent conflicting pair of some racy
    execution, if the program has one. *)

val enforce :
  ?fuel:int ->
  ?max_states:int ->
  Ast.program ->
  Ast.program * Location.t list
(** The program with enough locations promoted to volatile to be data
    race free, and the promoted locations (possibly empty).  Terminates:
    each iteration promotes a fresh location and there are finitely
    many. *)

val is_robust : ?fuel:int -> ?max_states:int -> Ast.program -> bool
(** No TSO-weak behaviours ([Memory_model.weak_behaviours Tso] is
    empty). *)
