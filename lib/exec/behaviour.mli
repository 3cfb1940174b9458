(** Observable behaviours.

    The behaviour of an interleaving is its sequence of external-action
    values in interleaving order (section 3: behaviours are "sequences of
    externally observable actions (input or output) of all interleavings
    of the program").  Because tracesets are prefix-closed, behaviour
    sets are prefix-closed too. *)

open Safeopt_trace

type t = Value.t list

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val to_string : t -> string

module Set : sig
  include Set.S with type elt = t

  val pp : t Fmt.t

  val list_prefixes : elt -> elt list
  (** All prefixes of one behaviour, shortest first. *)

  val is_prefix_closed : t -> bool

  val maximal : t -> elt list
  (** Behaviours that are not strict prefixes of other members. *)
end
