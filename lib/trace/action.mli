(** Memory actions (paper, section 3).

    A trace is a sequence of the actions of a single thread:
    - [R\[l=v\]] — a read from location [l] of value [v];
    - [W\[l=v\]] — a write to [l] of value [v];
    - [L\[m\]] — a lock of monitor [m];
    - [U\[m\]] — an unlock of [m];
    - [X(v)] — an external (input/output) action with value [v];
    - [S(e)] — a thread start action with entry point [e];
    - [U\[l:r→w\]] — an atomic read-modify-write of location [l] that
      read value [r] and wrote value [w] in one indivisible step.

    Classification predicates (volatile access, acquire, release,
    synchronisation, conflict, release-acquire pair) are parameterised by
    the set of volatile locations of the enclosing program. *)

type t =
  | Read of Location.t * Value.t
  | Write of Location.t * Value.t
  | Lock of Monitor.t
  | Unlock of Monitor.t
  | External of Value.t
  | Start of Thread_id.t
  | Rmw of Location.t * Value.t * Value.t
      (** [Rmw (l, r, w)]: atomically read [r] from [l] and write [w] to
          [l].  An RMW synchronises like a volatile access whatever the
          volatility of [l]: it is both an acquire and a release. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : t Fmt.t
(** Paper notation: [R[x=1]], [W[y=0]], [L[m]], [U[m]], [X(1)], [S(0)].
    An RMW prints as [U[l:r→w]] (for "update"): location, the value
    read, a UTF-8 rightwards arrow, the value written — e.g.
    [U[x:0→1]] for a successful [cas(x, 0, 1)].  The form is stable and
    round-trips through {!Syntax.parse_action} (which also accepts the
    ASCII arrow [->]); the monitor form [U[m]] is distinguished from it
    by the absence of a [:] after the identifier. *)

val to_string : t -> string

(** {1 Shape predicates (volatility-independent)} *)

val is_read : t -> bool

val is_write : t -> bool
(** A write or an RMW (an RMW writes memory). *)

val is_access : t -> bool
(** A memory access: a read, a write or an RMW. *)

val is_lock : t -> bool
val is_unlock : t -> bool
val is_external : t -> bool
val is_start : t -> bool
val is_rmw : t -> bool

val location : t -> Location.t option
(** The location accessed, for reads, writes and RMWs. *)

val accesses : t -> Location.t -> bool
(** [accesses a l] iff [a] is a read, write or RMW of location [l]. *)

val value : t -> Value.t option
(** The value carried by a read, write or external action; for an RMW,
    the value written (its memory effect). *)

val monitor : t -> Monitor.t option
(** The monitor of a lock or unlock. *)

(** {1 Volatility-sensitive classification (paper, section 3)} *)

val is_volatile_access : Location.Volatile.t -> t -> bool
val is_volatile_read : Location.Volatile.t -> t -> bool
val is_volatile_write : Location.Volatile.t -> t -> bool

val is_normal_access : Location.Volatile.t -> t -> bool
(** An access to a non-volatile location. *)

val is_normal_read : Location.Volatile.t -> t -> bool

val is_acquire : Location.Volatile.t -> t -> bool
(** A lock, a volatile read, or any RMW. *)

val is_release : Location.Volatile.t -> t -> bool
(** An unlock, a volatile write, or any RMW. *)

val is_sync : Location.Volatile.t -> t -> bool
(** A synchronisation action: an acquire or a release. *)

val is_sync_or_external : Location.Volatile.t -> t -> bool
(** Synchronisation and external actions have their relative order
    preserved by all untransformations (sections 4-5), so they are often
    classified together. *)

val conflicting : Location.Volatile.t -> t -> t -> bool
(** Two actions conflict iff they access the same {e non-volatile}
    location and at least one of them is a write (section 3) — except
    that two RMWs never conflict: their atomicity totally orders them,
    like two volatile accesses.  An RMW against a {e plain} access of
    the same non-volatile location does conflict (mixing atomic and
    non-atomic accesses is unsynchronised). *)

val release_acquire_pair : Location.Volatile.t -> t -> t -> bool
(** [release_acquire_pair vol a b] iff [a] is an unlock of a monitor [m]
    and [b] a lock of [m], or [a] is a write to a volatile location [l]
    and [b] a read of [l] (section 3, synchronises-with).  An RMW acts
    as both sides: two RMWs of the same location always pair, and an
    RMW pairs with a read (resp. a write pairs with an RMW) of the same
    volatile location. *)

val reorderable : Location.Volatile.t -> t -> t -> bool
(** [reorderable vol a b]: may an earlier [a] be swapped with a later
    [b]?  Per section 4, true iff either
    (i) [a] is a non-volatile memory access, and [b] is a non-conflicting
    non-volatile memory access, an acquire, or an external action; or
    (ii) [b] is a non-volatile memory access, and [a] is a non-conflicting
    non-volatile memory access, a release, or an external action.

    The relation is intentionally asymmetric (roach-motel reordering): a
    normal access may move past a later acquire, and a release may move
    past a later normal access, but not vice versa.

    An RMW is both an acquire and a release, so it moves in neither
    direction: [reorderable vol a b] is false whenever [a] or [b] is an
    RMW. *)
