(** Abstract syntax of the simple concurrent language (paper, Fig. 6).

    {v
    ri ::= r | i
    T  ::= ri == ri | ri != ri
    A  ::= cas(l, ri, ri) | faa(l, ri) | xchg(l, ri)
    S  ::= l := r; | r := l; | r := ri; | lock m; | unlock m; | skip;
         | print r; | r := A; | {L} | if (T) S else S | while (T) S
    L  ::= S | S L
    P  ::= L || L || ... || L
    v}

    A program additionally carries its set of volatile locations
    (section 2: "the set of volatile locations should be part of a
    program").

    The atomic forms [A] extend Fig. 6 with read-modify-write updates:
    [r := cas(l, e, d);] atomically reads [l] into [r] and, if the value
    equals [e], writes [d] (a failed CAS writes the read value back, so
    every atomic statement performs exactly one RMW action);
    [r := faa(l, i);] adds [i]; [r := xchg(l, v);] writes [v].  In all
    three the destination register receives the {e old} value. *)

open Safeopt_trace

type operand = Reg of Reg.t | Nat of int  (** [ri ::= r | i] *)

type test =
  | Eq of operand * operand  (** [ri == ri] *)
  | Ne of operand * operand  (** [ri != ri] *)

type rmw =
  | Cas of operand * operand  (** [cas(l, expected, desired)] *)
  | Faa of operand  (** [faa(l, addend)] *)
  | Xchg of operand  (** [xchg(l, new)] *)

type stmt =
  | Store of Location.t * Reg.t  (** [l := r;] *)
  | Load of Reg.t * Location.t  (** [r := l;] *)
  | Move of Reg.t * operand  (** [r := ri;] *)
  | Lock of Monitor.t  (** [lock m;] *)
  | Unlock of Monitor.t  (** [unlock m;] *)
  | Skip  (** [skip;] *)
  | Print of Reg.t  (** [print r;] *)
  | Atomic of Reg.t * Location.t * rmw
      (** [r := cas(l, e, d);] / [r := faa(l, i);] / [r := xchg(l, v);] —
          one atomic RMW action; [r] receives the value read. *)
  | Block of stmt list  (** [{L}] *)
  | If of test * stmt * stmt  (** [if (T) S else S] *)
  | While of test * stmt  (** [while (T) S] *)

type thread = stmt list  (** [L] *)

type program = { threads : thread list; volatile : Location.Volatile.t }

val program : ?volatile:Location.t list -> thread list -> program

val equal_operand : operand -> operand -> bool
val equal_test : test -> test -> bool
val equal_rmw : rmw -> rmw -> bool
val equal_stmt : stmt -> stmt -> bool
val equal_thread : thread -> thread -> bool
val equal_program : program -> program -> bool

(** {1 Static analyses used by the transformation rules} *)

val fv_stmt : stmt -> Location.Set.t
(** [fv(S)]: all shared-memory locations occurring in [S] (Fig. 10's
    side conditions). *)

val fv_thread : thread -> Location.Set.t

val regs_stmt : stmt -> Reg.Set.t
(** All register names occurring in [S] (read or written). *)

val regs_thread : thread -> Reg.Set.t

val sync_free_stmt : Location.Volatile.t -> stmt -> bool
(** [S] contains no lock/unlock statements, no atomic RMWs, and no
    accesses to volatile locations (section 6.1). *)

val sync_free_thread : Location.Volatile.t -> thread -> bool

val constants_stmt : stmt -> int list
(** All integer literals [i] occurring in statements of the form
    [r := i] or as atomic RMW operands (the ways the language can place
    a value in memory; used for the out-of-thin-air Theorem 5). *)

val constants_thread : thread -> int list
val constants_program : program -> int list

val all_constants_program : program -> int list
(** Every literal in the program, including those in tests (a superset
    of {!constants_program}; useful for choosing value universes). *)

val stmt_size : stmt -> int
(** Number of AST nodes (for generators and benchmarks). *)

val thread_size : thread -> int
val program_size : program -> int

val fresh_reg : Reg.Set.t -> Reg.t
(** A register name not in the given set (used by desugaring and
    transformations that need temporaries). *)
