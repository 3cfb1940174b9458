(** Litmus tests: named programs with expected SC verdicts.

    Each test carries concrete syntax (exercising the parser), an
    expected data-race-freedom verdict, and behaviours that must /
    must not be observable under sequential consistency.  {!check}
    runs the exhaustive interpreter and compares. *)

open Safeopt_exec
open Safeopt_lang

type t = {
  name : string;
  descr : string;
  source : string;  (** concrete syntax *)
  drf : bool;  (** expected: is the program data race free? *)
  can : Behaviour.t list;  (** behaviours that must be observable *)
  cannot : Behaviour.t list;  (** behaviours that must not be observable *)
}

type outcome = {
  test : t;
  program : Ast.program;
  drf_actual : bool;
  behaviours : Behaviour.Set.t;
  failures : string list;  (** empty iff all expectations hold *)
}

val program : t -> Ast.program
(** Parse the test's source. *)

val check :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?model:Safeopt_model.Memory_model.t ->
  t ->
  outcome
(** [stats], when given, accumulates exploration statistics
    ({!Safeopt_exec.Explorer.stats}) across the DRF check and the
    behaviour enumeration.

    [model] (default [Sc]) selects the machine whose behaviours are
    enumerated.  The [can]/[cannot] expectations stay SC expectations
    and the DRF leg stays an SC question, so running a weak model
    deliberately surfaces its relaxations as failures — [sb] under
    [Tso] reports the SC-forbidden [\[0; 0\]] as observable. *)

val check_all :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?model:Safeopt_model.Memory_model.t ->
  t list ->
  outcome list
(** Check a corpus, one test per pool job under [jobs]/[pool]
    ([Safeopt_exec.Par]).  Outcomes come back in input order and are
    identical to [List.map check]; every job counts into [stats]
    ({!Explorer.batch_map}). *)

val passed : outcome -> bool

val pp_outcome : outcome Fmt.t

val make :
  name:string ->
  descr:string ->
  ?drf:bool ->
  ?can:Behaviour.t list ->
  ?cannot:Behaviour.t list ->
  string ->
  t
(** [make ~name ~descr src]; [drf] defaults to [true]. *)
