(** First-class memory models: the backend seam of the validation
    stack.

    A memory model is what turns a program into a set of observable
    behaviours, together with a stance on data races:

    - {e Sc} is the language-level model of the paper: behaviours are
      the SC interleavings ({!Safeopt_lang.Interp}), and racy programs
      "catch fire" — the DRF guarantee promises nothing about them, so
      transformation safety is judged by the catch-fire criterion (a
      DRF original must stay DRF and gain no behaviours; racy originals
      are vacuously fine).
    - {e Tso}/{e Pso} are hardware models: every program, racy or not,
      has defined behaviour (the store-buffer machine,
      {!Store_buffer}), so transformation safety is plain behaviour
      inclusion under the model.

    That asymmetry is exactly what the portability matrix measures: a
    transformation can be SC-safe (vacuous on a racy program) yet
    introduce hardware-observable behaviour — load;store reordering
    under TSO — or SC-unsafe (it breaks DRF) yet harmless on hardware,
    where nothing catches fire — irrelevant-read introduction. *)

open Safeopt_exec
open Safeopt_lang

type t = Sc | Tso | Pso

val all : t list
(** [[Sc; Tso; Pso]], strongest first. *)

val name : t -> string
(** ["sc"], ["tso"], ["pso"] — the tag used by [--model], span/metric
    labels and witness provenance. *)

val pp : t Fmt.t

val of_string : string -> (t, string) result

val equal : t -> t -> bool

val catch_fire : t -> bool
(** The model's racy-behaviour semantics: [true] for {!Sc} (racy
    programs have undefined behaviour, so the DRF-guarantee criterion
    applies), [false] for the hardware models (racy programs have
    defined machine behaviour, so safety is behaviour inclusion). *)

val describe : t -> string
(** One-line summary of the model and its safety criterion. *)

val behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  t ->
  Ast.program ->
  Behaviour.Set.t
(** The program's observable behaviours under the model
    (prefix-closed): SC interleavings for {!Sc}, the store-buffer
    machine for {!Tso}/{!Pso}. *)

val weak_behaviours :
  ?fuel:int ->
  ?max_states:int ->
  ?stats:Explorer.stats ->
  ?than:t ->
  t ->
  Ast.program ->
  Behaviour.Set.t
(** The behaviours of the program under [m] that [than] (default
    {!Sc}) does not have: the observable store-buffering weakness
    under {!Tso} (empty for DRF programs; Theorem 2 + section 8), the
    write-write reordering alone for [~than:Tso Pso]. *)

val replays :
  ?fuel:int ->
  ?max_states:int ->
  t ->
  Ast.program ->
  Behaviour.t ->
  bool
(** Witness replay: re-enumerate the program under the model and check
    the behaviour is (still) observable — how portability witnesses
    are validated before they are reported. *)
