open Safeopt_trace
open Safeopt_lang
open Safeopt_exec
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event
module Model = Safeopt_model.Memory_model

type relation =
  | Unchecked
  | Elimination
  | Reordering
  | Elimination_then_reordering

let pp_relation ppf = function
  | Unchecked -> Fmt.string ppf "unchecked"
  | Elimination -> Fmt.string ppf "elimination"
  | Reordering -> Fmt.string ppf "reordering"
  | Elimination_then_reordering ->
      Fmt.string ppf "elimination-then-reordering"

type report = {
  model : Model.t;
  original_drf : bool;
  transformed_drf : bool;
  new_behaviour : Behaviour.t option;
  race_witness : Interleaving.t option;
  relation : relation;
  relation_holds : bool option;
  relation_counterexample : Trace.t option;
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>model: %a@ original DRF: %b@ transformed DRF: %b@ new behaviour: \
     %a@ relation (%a): %a@]"
    Model.pp r.model r.original_drf r.transformed_drf
    Fmt.(option ~none:(any "none") Behaviour.pp)
    r.new_behaviour pp_relation r.relation
    Fmt.(option ~none:(any "n/a") bool)
    r.relation_holds;
  Option.iter
    (fun t -> Fmt.pf ppf "@ unwitnessed trace: %a" Trace.pp t)
    r.relation_counterexample

(* The model's racy-behaviour semantics decide the criterion.  Under
   SC racy programs catch fire, so the DRF guarantee is all there is to
   check — and it is vacuous for racy originals.  Under the hardware
   models every program has defined machine behaviour, so the only
   sound reading of "safe" is plain behaviour inclusion: no new
   behaviour, racy or not. *)
let behaviours_ok r =
  if Model.catch_fire r.model then
    (not r.original_drf)
    || (r.transformed_drf && Option.is_none r.new_behaviour)
  else Option.is_none r.new_behaviour

let ok r =
  behaviours_ok r
  && match r.relation_holds with None -> true | Some b -> b

let find_race_fast ?fuel ?max_states ?stats p =
  if Safeopt_analysis.Static_race.certified_drf p then None
  else Interp.find_race ?fuel ?max_states ?stats p

(* One program's answers to the questions every report asks of it: its
   behaviours under the model, whether it is DRF, and a race witness,
   searched for only when forced.  The DRF legs are SC questions under
   every model: data races are a property of the language semantics,
   and the DRF guarantee is what ports SC verdicts to the hardware
   models.  Under SC one reduced exploration answers both questions,
   and a program with a static certificate only needs its behaviours. *)
type answers = {
  behaviours : Behaviour.Set.t;
  drf : bool;
  race : Interleaving.t option Lazy.t;
}

let answers ?fuel ?max_states ?stats model p =
  match model with
  | Model.Sc ->
      let behaviours, drf =
        if Safeopt_analysis.Static_race.certified_drf p then
          (Interp.behaviours ?fuel ?max_states ?stats p, true)
        else Interp.behaviours_and_drf ?fuel ?max_states ?stats p
      in
      let race =
        lazy (if drf then None else Interp.find_race ?fuel ?max_states ?stats p)
      in
      { behaviours; drf; race }
  | Model.Tso | Model.Pso ->
      let race = find_race_fast ?fuel ?max_states ?stats p in
      let behaviours = Model.behaviours ?fuel ?max_states ?stats model p in
      { behaviours; drf = Option.is_none race; race = Lazy.from_val race }

(* The report of one pair from its programs' answers.  The transformed
   side's witness is forced here, in the calling domain. *)
let report_of model (o : answers) (t : answers) =
  {
    model;
    original_drf = o.drf;
    transformed_drf = t.drf;
    new_behaviour = Safeopt_core.Safety.behaviour_subset t.behaviours o.behaviours;
    race_witness = Lazy.force t.race;
    relation = Unchecked;
    relation_holds = None;
    relation_counterexample = None;
  }

(* One span per differential validation; its children are the explorer
   entry spans of the two programs' explorations, which are independent:
   each program's answers are one batch job. *)
let validate_with ?fuel ?max_states ?stats ?jobs ?pool ?(model = Model.Sc)
    ~relation ~relation_check ~original ~transformed () =
  Tracer.with_span "validate"
    ~attrs:(fun () ->
      [
        ("relation", Ev.Str (Fmt.str "%a" pp_relation relation));
        ("model", Ev.Str (Model.name model));
      ])
    ~result:(fun r ->
      [
        ("original_drf", Ev.Bool r.original_drf);
        ("transformed_drf", Ev.Bool r.transformed_drf);
        ("new_behaviour", Ev.Bool (Option.is_some r.new_behaviour));
        ("ok", Ev.Bool (ok r));
      ])
    (fun () ->
      let r =
        match
          Explorer.batch_map ?stats ?jobs ?pool
            (answers ?fuel ?max_states ?stats model)
            [ original; transformed ]
        with
        | [ o; t ] -> report_of model o t
        | _ -> assert false
      in
      let relation_holds, relation_counterexample = relation_check () in
      { r with relation; relation_holds; relation_counterexample })

let validate ?fuel ?max_states ?stats ?jobs ?pool ?model ~original
    ~transformed () =
  validate_with ?fuel ?max_states ?stats ?jobs ?pool ?model
    ~relation:Unchecked
    ~relation_check:(fun () -> (None, None))
    ~original ~transformed ()

(* Structured counterexample extraction: a failed report becomes a
   witness carrying the program pair and the strongest evidence the
   report holds — an introduced race beats a new behaviour beats a
   failed relation check (the first two break the DRF guarantee
   itself; the last only breaks the claimed §4/§6 justification). *)
let witness ~original ~transformed (r : report) :
    Ast.program Safeopt_core.Witness.t option =
  if ok r then None
  else
    let evidence =
      if Model.catch_fire r.model then
        match (r.race_witness, r.new_behaviour, r.relation_counterexample) with
        | Some i, _, _ when r.original_drf ->
            Some (Safeopt_core.Witness.Race_introduced i)
        | _, Some b, _ when r.original_drf ->
            Some (Safeopt_core.Witness.New_behaviour b)
        | _, _, Some t -> Some (Safeopt_core.Witness.Relation_failure t)
        | _ -> None
      else
        (* Hardware models fail on inclusion alone: the evidence is the
           model-level behaviour the original cannot produce. *)
        Option.map
          (fun b -> Safeopt_core.Witness.New_behaviour b)
          r.new_behaviour
    in
    Option.map
      (Safeopt_core.Witness.make ~model:r.model ~original ~transformed)
      evidence

let validate_semantic ?fuel ?max_states ?stats ?jobs ?pool ?(max_len = 12)
    ~relation ~original ~transformed () =
  let universe = Denote.joint_universe [ original; transformed ] in
  let vol = original.Ast.volatile in
  let relation_check () =
    match relation with
    | Unchecked -> (None, None)
    | _ ->
        let ts_trans = Denote.traceset ~universe ~max_len transformed in
        let orig_len = max_len + Ast.program_size original + 1 in
        let ts_orig = Denote.traceset ~universe ~max_len:orig_len original in
        let cex =
          match relation with
          | Unchecked -> None
          | Elimination ->
              Safeopt_core.Elimination.find_unwitnessed vol ~original:ts_orig
                ~universe ~transformed:ts_trans
          | Reordering ->
              Safeopt_core.Reorder.find_undepermutable vol
                ~mem:(fun t -> Traceset.mem t ts_orig)
                ~transformed:ts_trans
          | Elimination_then_reordering ->
              let mem =
                Safeopt_core.Elimination.memoised_member vol
                  ~original:ts_orig ~universe
              in
              Safeopt_core.Reorder.find_undepermutable vol ~mem
                ~transformed:ts_trans
        in
        (Some (Option.is_none cex), cex)
  in
  validate_with ?fuel ?max_states ?stats ?jobs ?pool ~relation ~relation_check
    ~original ~transformed ()

(* --- The validator escalation ladder ----------------------------------- *)

module Refine = Safeopt_analysis.Refine
module Metrics = Safeopt_obs.Metrics

type validator = Static | Refinement | Exhaustive | Auto

let pp_validator ppf = function
  | Static -> Fmt.string ppf "static"
  | Refinement -> Fmt.string ppf "refine"
  | Exhaustive -> Fmt.string ppf "exhaustive"
  | Auto -> Fmt.string ppf "auto"

type method_ = Equal_programs | Refined | Enumerated | Inconclusive

type outcome = {
  out_validator : validator;
  out_method : method_;
  out_ok : bool;
  out_refine : Refine.t option;
  out_report : report option;
  out_note : string option;
}

let method_tag o =
  match o.out_method with
  | Equal_programs -> "static"
  | Refined -> "refine"
  | Enumerated -> "exhaustive"
  | Inconclusive -> "inconclusive"

let outcome_ok o = o.out_ok

let outcome_witness ~original ~transformed o =
  if o.out_ok then None
  else
    match (o.out_report, o.out_refine) with
    | Some r, _ -> witness ~original ~transformed r
    | None, Some r -> Refine.witness ~original ~transformed r
    | None, None -> None

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>validator: %a; decided by: %s; verdict: %s" pp_validator
    o.out_validator (method_tag o)
    (if o.out_ok then "ok"
     else
       match o.out_method with
       | Inconclusive -> "UNDECIDED"
       | _ -> "FAILED");
  Option.iter (fun n -> Fmt.pf ppf "@ note: %s" n) o.out_note;
  Option.iter (fun r -> Fmt.pf ppf "@ %a" Refine.pp r) o.out_refine;
  Option.iter (fun r -> Fmt.pf ppf "@ %a" pp_report r) o.out_report;
  Fmt.pf ppf "@]"

let vcount name =
  if Metrics.enabled () then Metrics.add (Metrics.counter Metrics.global name) 1

(* The ladder.  Rung 1 (static): syntactic program equality — trivially
   ok, no semantics consulted.  Rung 2 (refine): the thread-local
   refinement analysis; a [Safe] verdict establishes Lemma 5's relation
   on the bounded denotations, which implies the DRF guarantee for any
   original (Theorems 3-5) — ok without enumerating one interleaving.
   Rung 3 (exhaustive): the interpreter-level differential validation
   (itself using the static lockset certificate for its two DRF legs).

   The relation of rung 2 is sufficient but not necessary, so in [Auto]
   a refine counterexample escalates to rung 3 rather than rejecting:
   [Auto]'s verdict always equals [Exhaustive]'s.  Forcing a single
   rung ([Static]/[Refinement]) reports [Inconclusive] (not ok, no
   witness) when that rung cannot decide.

   Every model climbs this one ladder; the model decides only whether
   the refine rung may decide, and the text of the notes.  The static
   rung is sound under any model (equal programs have equal behaviours),
   but the refine rung argues over SC tracesets.  Under a hardware
   model [Auto] applies it only when both programs carry a static DRF
   certificate: by the DRF guarantee their model behaviours coincide
   with SC (Theorem 2), so an SC-safe verdict ports.  Otherwise [Auto]
   escalates straight to model-exhaustive enumeration, and forcing
   [Refinement] is [Inconclusive]. *)
let run_validator ?fuel ?max_states ?stats ?jobs ?pool ?max_len ?max_traces
    ?(model = Model.Sc) validator ~original ~transformed () =
  vcount "validate.outcomes";
  vcount ("validate.model." ^ Model.name model);
  let sc = Model.equal model Model.Sc in
  let outcome out_method out_ok out_refine out_report out_note =
    { out_validator = validator; out_method; out_ok; out_refine; out_report;
      out_note }
  in
  let inconclusive refine note =
    outcome Inconclusive false refine None (Some note)
  in
  let exhaustive ?refine ?note () =
    vcount "validate.exhaustive_runs";
    let r =
      validate ?fuel ?max_states ?stats ?jobs ?pool ~model ~original
        ~transformed ()
    in
    outcome Enumerated (ok r) refine (Some r) note
  in
  let escalate ?refine why =
    exhaustive ?refine
      ~note:
        (Fmt.str "%s; escalated to %s enumeration" why
           (if sc then "exhaustive" else Model.name model ^ "-exhaustive"))
      ()
  in
  let certified = Safeopt_analysis.Static_race.certified_drf in
  if Ast.equal_program original transformed then begin
    vcount "validate.static_hits";
    outcome Equal_programs true None None
      (Some "programs syntactically equal")
  end
  else
    match validator with
    | Static ->
        inconclusive None
          (Fmt.str
             "programs differ: the static rung cannot relate distinct \
              programs (use %sexhaustive or auto)"
             (if sc then "refine, " else ""))
    | Exhaustive -> exhaustive ()
    | Refinement when not sc ->
        inconclusive None
          (Fmt.str
             "the refinement rung argues over SC tracesets and cannot \
              decide the %a model (use exhaustive or auto)"
             Model.pp model)
    | Auto when not (sc || (certified original && certified transformed)) ->
        escalate "the static/refine rungs are SC-sound arguments"
    | Refinement | Auto -> (
        let r = Refine.check ?max_len ?max_traces ~original ~transformed () in
        match (Refine.verdict r, validator) with
        | Refine.Safe, _ ->
            vcount "validate.refine_hits";
            outcome Refined true (Some r) None
              (if sc then None
               else
                 Some
                   (Fmt.str
                      "both programs statically DRF: the SC refinement \
                       verdict ports to %a by the DRF guarantee"
                      Model.pp model))
        | Refine.Counterexample _, Refinement ->
            outcome Refined false (Some r) None
              (Some "a transformed thread trace has no \
                     elimination/reordering witness")
        | Refine.Unknown reason, Refinement -> inconclusive (Some r) reason
        | (Refine.Counterexample _ | Refine.Unknown _), _ when not sc ->
            vcount "validate.refine_misses";
            escalate ~refine:r "refinement could not decide"
        | Refine.Counterexample _, _ ->
            vcount "validate.refine_misses";
            escalate ~refine:r "refinement found an unwitnessed trace"
        | Refine.Unknown reason, _ ->
            vcount "validate.refine_misses";
            escalate ~refine:r reason)

type chain_report = { pairwise : report list; end_to_end : report }

let pp_chain_report ppf c =
  List.iteri
    (fun i r -> Fmt.pf ppf "@[<v2>step %d -> %d:@ %a@]@ " i (i + 1) pp_report r)
    c.pairwise;
  Fmt.pf ppf "@[<v2>end to end:@ %a@]" pp_report c.end_to_end

let chain_ok c = List.for_all ok c.pairwise && ok c.end_to_end

(* Each program is explored once: a middle program is the transformed
   side of one pair and the original side of the next, and the
   end-to-end report reuses the first and last programs' answers.  A
   race witness is searched for only when a racy program is some
   report's transformed side. *)
let validate_chain ?fuel ?max_states ?stats ?jobs ?pool = function
  | [] -> invalid_arg "Validate.validate_chain: empty chain"
  | programs ->
      let all =
        Explorer.batch_map ?stats ?jobs ?pool
          (answers ?fuel ?max_states ?stats Model.Sc)
          programs
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> report_of Model.Sc a b :: pairs rest
        | _ -> []
      in
      let first = List.hd all in
      let last = List.fold_left (fun _ d -> d) first all in
      { pairwise = pairs all; end_to_end = report_of Model.Sc first last }
