(** Noise-aware comparison of two BENCH_*.json files: the engine behind
    [drfopt bench diff old.json new.json], CI's perf gate.

    Both files are bench records ([{"schema": "bench/v3", "mode",
    "quick", "experiments", "claims", "detail"}], written by
    [bench/main.exe]), and only two of their members are compared:

    - [experiments] pair by ["name"] and compare by ["units_per_sec"]
      (higher is better).  Rates are reps-independent, so a quick run
      compares cleanly against a committed full run.  ["wall_s"] is only
      the noise gate: an experiment whose wall is under [min_wall]
      (default 0.05 s) on both sides is skipped, and a surviving one
      regresses when its rate falls by more than [threshold] (default
      0.25).
    - [claims] pair by their text: a claim that is [true] in the old
      file and [false] or missing in the new one is broken, whatever
      the thresholds.

    [quick], [mode] and everything under [detail] (configuration,
    phases, per-program rows) are never compared. *)

type status =
  | Ok_same
  | Improved of float  (** relative rate gain *)
  | Regressed of float  (** relative rate loss *)
  | Noise  (** both walls under the floor; not compared *)
  | Claim_broken  (** [true] in old, [false] or missing in new *)

type row = {
  r_path : string;
      (** [experiments[NAME].units_per_sec] or [claims[TEXT]] *)
  r_old : float;  (** a rate, or 1/0 for a claim *)
  r_new : float option;  (** [None]: the claim is missing from new *)
  r_status : status;
}

type t = { rows : row list; compared : int; regressions : int }

val default_threshold : float
(** 0.25 — a quarter in the bad direction. *)

val default_min_wall : float
(** 0.05 s. *)

val diff :
  ?threshold:float ->
  ?min_wall:float ->
  old_json:Json.t ->
  new_json:Json.t ->
  unit ->
  (t, string) result
(** [Error] when nothing is compared: the old record has no claim, and
    no experiment both records share is above the noise floor. *)

val diff_files :
  ?threshold:float -> ?min_wall:float -> string -> string -> (t, string) result
(** [diff_files old_path new_path]: read, parse, {!diff}. *)

val regressed : t -> bool
(** Any [Regressed] or [Claim_broken] row — the non-zero-exit signal. *)

val pp : Format.formatter -> t -> unit
(** One row per experiment and claim with old/new values and a
    verdict, then a [N compared, M regressions] summary line. *)
