(** Programs as thread systems for the execution-enumeration engine.

    Each thread first emits its start action [S(i)] (rule PAR of Fig. 7)
    and then follows the small-step semantics.  If the program contains
    loops, an action-fuel counter is embedded in the thread state so
    that the global state graph is acyclic and the engine's analyses
    terminate (they are then exact up to executions of [fuel] actions
    per thread); loop-free programs carry no fuel and are analysed
    exactly. *)

type state

val make : ?fuel:int -> Ast.program -> state Safeopt_exec.System.t
(** [fuel] (default 64) is used only when the program contains a
    [while] loop.  The system's [local] actions are the starts and the
    accesses to locations that, syntactically, only one thread of the
    program mentions: they commute with every other thread's steps and
    never race, so the explorer's searches of a program are reduced. *)

val has_loop : Ast.program -> bool
