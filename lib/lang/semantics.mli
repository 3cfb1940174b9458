(** Labelled small-step semantics (paper, Figs. 7-8).

    A thread-local configuration is [(sigma, s, C)]: the monitor state
    [sigma] (nesting level of each lock, used only to make an unlock of
    an un-held monitor silent, rule E-ULK), the register state [s]
    (all registers initially 0), and a code fragment.  We represent the
    code fragment as a statement list (the continuation); the
    structural rules SEQ/BLOCK/EV-SEQ/EV-BLOCK become list operations,
    which preserves the issued traces exactly.

    Silent ([tau]) steps are deterministic, so after [tau]-normalising
    a configuration either the thread is done, or it diverges silently,
    or it offers exactly one kind of visible action ({!outcome}).  All
    thread-level nondeterminism in the language comes from read values
    and scheduling. *)

open Safeopt_trace

type config = {
  mons : int Monitor.Map.t;  (** [sigma]: lock nesting per monitor *)
  regs : Value.t Reg.Map.t;  (** [s]: registers, default 0 *)
  code : Ast.stmt list;  (** continuation *)
}

val initial : Ast.thread -> config
(** [sigma_0] maps all monitors to 0 and [s_0] all registers to 0. *)

val canonical :
  config -> (Monitor.t * int) list * (Reg.t * Value.t) list * Ast.stmt list
(** What determines a configuration's future, in canonical form: the
    non-zero monitor depths and the non-zero registers as binding lists
    in (descending) key order, and the code.  A binding at 0 is the same
    as an absent one, and equal maps give equal lists whatever order
    they were built in. *)

val config_key : config -> string
(** The binary encoding ({!Safeopt_exec.System.encode}) of
    {!canonical}: configurations with equal keys have equal futures.
    Used for memoisation. *)

val value_of : config -> Ast.operand -> Value.t
(** [Val(s, ri)] of Fig. 7. *)

val eval_test : config -> Ast.test -> bool

type outcome =
  | Done  (** no code left *)
  | Diverged  (** [tau]-fuel exhausted: silent loop *)
  | Write of Location.t * Value.t * config
  | Read of Location.t * (Value.t -> config)
  | Rmw of Location.t * (Value.t -> Value.t * config)
      (** an atomic RMW of the location: given the current value, the
          value written and the continuation configuration (the
          destination register holds the value read) *)
  | Lock of Monitor.t * config
  | Unlock of Monitor.t * config
  | Output of Value.t * config

val next : ?tau_fuel:int -> config -> outcome
(** [tau]-normalise and report the unique next visible step.
    [tau_fuel] (default 100_000) bounds silent steps between actions. *)

val issues : ?tau_fuel:int -> config -> Trace.t -> bool
(** [(sigma,s,C) ~> t]: can the configuration issue exactly this
    sequence of actions (Fig. 8)?  Deterministic replay via {!next}. *)

val run_sequential : ?tau_fuel:int -> ?max_actions:int -> config
  -> read:(Location.t -> Value.t) -> write:(Location.t -> Value.t -> unit)
  -> Trace.t
(** Run a single thread to completion against a memory oracle,
    returning the issued trace (used by the quickstart example and the
    TSO machine's per-thread replay). *)
