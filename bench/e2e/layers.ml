(* Per-layer attribution of one input, measured from outside the library.

   The traced input runs in three phases:

   - replay: the bench calls each layer's public entry point in the
     order [Pipeline.run] does -- parse, every pass step (with its
     fixpoint loop), then for each changed step every rung the [Auto]
     ladder uses -- and wraps each call in a [bench.<layer>] span.  After
     a rung, the calls it makes internally (per-thread denotations,
     behaviour enumeration, the static race certificate, DRF search) are
     made again as child spans of the rung, so [Profile.aggregate]'s self
     time of the rung is its wall minus theirs: refine's self time is
     [Refine.check] minus [lang.denote], the exhaustive rung's is the
     ladder and behaviour-set comparison;
   - untraced: the plain [Pipeline.run], tracing and metrics off;
   - traced: the same with the tracer and the metrics registry on; its
     wall is what the replay's self times must add up to, and its
     registry gives the counts.

   Each phase yields a flat sample of named sums, so samples add up
   across inputs and cross a pipe as JSON. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_opt
module Model = Safeopt_model.Memory_model
module Obs = Safeopt_obs
module Json = Obs.Json
module Metrics = Obs.Metrics
module Tracer = Obs.Tracer

type sample = (string, float) Hashtbl.t

let bump (s : sample) k v =
  Hashtbl.replace s k (v +. Option.value ~default:0. (Hashtbl.find_opt s k))

let to_json (s : sample) =
  Json.Obj (Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) s [])

let add_json (s : sample) j =
  match j with
  | Json.Obj kvs ->
      List.iter
        (fun (k, v) -> Option.iter (bump s k) (Json.to_float v))
        kvs
  | _ -> invalid_arg "Layers.add_json"

(* Refine's bounds (its defaults, which [Validate.run_validator] keeps). *)
let refine_max_len = 12
let refine_max_traces = 50_000

let rec has_atomic = function
  | Ast.Atomic _ -> true
  | Ast.Block l -> List.exists has_atomic l
  | Ast.If (_, a, b) -> has_atomic a || has_atomic b
  | Ast.While (_, s) -> has_atomic s
  | Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
  | Ast.Skip | Ast.Print _ ->
      false

(* The layers the replay calls again after each rung, as its children. *)
let children = function
  | "opt.validate" ->
      [ "exec.explorer"; "model.store_buffer"; "analysis.static" ]
  | "analysis.refine" -> [ "lang.denote" ]
  | _ -> []

let registry_counter name = Metrics.find_counter Metrics.global name
let explorer_counters = [ "states"; "edges"; "memo_hits"; "por_cuts" ]

let replay ~marker (i : Workload.input) =
  let s : sample = Hashtbl.create 32 in
  (* A span around one call, with its allocation as Gc deltas; a child
     call's allocation is taken off its parent's self allocation, as
     [Profile] does with time. *)
  let layer ?parent name f =
    marker name;
    (* the Gc snapshots stay outside the span: [Gc.quick_stat] costs
       microseconds, and a round opens a thousand spans *)
    let g0 = Gc.quick_stat () in
    let minor0 = Gc.minor_words () in
    let sp =
      Tracer.span ?parent:(Option.map fst parent) ("bench." ^ name)
    in
    let t0 = Obs.Clock.now () in
    let finish () =
      let wall = Obs.Clock.elapsed t0 in
      Tracer.close_span sp;
      let minor = Gc.minor_words () -. minor0 in
      let major = (Gc.quick_stat ()).Gc.major_words -. g0.Gc.major_words in
      bump s ("minor_words/" ^ name) minor;
      bump s ("major_words/" ^ name) major;
      Option.iter
        (fun (_, p) ->
          bump s ("minor_words/" ^ p) (-.minor);
          bump s ("major_words/" ^ p) (-.major))
        parent;
      wall
    in
    match f () with
    | r -> (r, (sp, name), finish ())
    | exception e ->
        ignore (finish ());
        raise e
  in
  let call ?parent name f =
    let r, _, _ = layer ?parent name f in
    r
  in
  let max_states = i.max_states in
  let rung name validator ~original ~transformed =
    layer name (fun () ->
        Validate.run_validator ~jobs:1 ?max_states ~model:i.model validator
          ~original ~transformed ())
  in
  let denote ~parent ~original ~transformed =
    if
      List.length original.Ast.threads = List.length transformed.Ast.threads
      && Location.Volatile.equal original.Ast.volatile transformed.Ast.volatile
    then
      let universe = Denote.joint_universe [ original; transformed ] in
      let traces ~max_len ~tid t =
        let ts, complete =
          call ~parent "lang.denote" (fun () ->
              Denote.thread_traces ~max_traces:refine_max_traces ~universe
                ~max_len ~tid t)
        in
        bump s "traces/lang.denote" (float_of_int (Traceset.cardinal ts));
        complete
      in
      List.iteri
        (fun tid (torig, ttrans) ->
          if
            not
              (Ast.equal_thread torig ttrans
              || List.exists has_atomic torig
              || List.exists has_atomic ttrans)
          then
            if traces ~max_len:refine_max_len ~tid ttrans then
              ignore
                (traces
                   ~max_len:(refine_max_len + Ast.thread_size torig + 1)
                   ~tid torig))
        (List.combine original.Ast.threads transformed.Ast.threads)
  in
  let behaviours ~parent p =
    match i.model with
    | Model.Sc ->
        ignore
          (call ~parent "exec.explorer" (fun () ->
               Interp.behaviours ?max_states p))
    | m ->
        let read () =
          List.map
            (fun c -> registry_counter ("explorer." ^ c))
            explorer_counters
        in
        let before = read () in
        ignore
          (call ~parent "model.store_buffer" (fun () ->
               Model.behaviours ?max_states m p));
        List.iter2
          (fun c (b, a) ->
            let v x = float_of_int (Option.value ~default:0 x) in
            bump s (c ^ "/model.store_buffer") (v a -. v b))
          explorer_counters
          (List.combine before (read ()))
  in
  let certified ~parent p =
    let c =
      call ~parent "analysis.static" (fun () ->
          Safeopt_analysis.Static_race.certified_drf p)
    in
    if c then bump s "certified/analysis.static" 1.;
    c
  in
  let exhaustive ~original ~transformed =
    let o, parent, _ =
      rung "opt.validate" Validate.Exhaustive ~original ~transformed
    in
    behaviours ~parent original;
    behaviours ~parent transformed;
    if not (certified ~parent original) then
      ignore
        (call ~parent "exec.explorer" (fun () ->
             Interp.is_drf ?max_states original));
    if not (certified ~parent transformed) then
      ignore
        (call ~parent "exec.explorer" (fun () ->
             Interp.find_race ?max_states transformed));
    o
  in
  (* The rungs [Auto] climbs under SC: equality, refine, and exhaustive
     when refine does not decide. *)
  let validate ~original ~transformed =
    match (i.validator, i.model) with
    | Validate.Exhaustive, _ -> exhaustive ~original ~transformed
    | Validate.Auto, Model.Sc ->
        ignore (rung "opt.validate" Validate.Static ~original ~transformed);
        let o, parent, wall =
          rung "analysis.refine" Validate.Refinement ~original ~transformed
        in
        denote ~parent ~original ~transformed;
        Option.iter
          (fun (r : Safeopt_analysis.Refine.t) ->
            List.iter
              (function
                | _, Safeopt_analysis.Refine.Refines { traces } ->
                    bump s "traces_checked/analysis.refine"
                      (float_of_int traces)
                | _ -> ())
              r.threads)
          o.Validate.out_refine;
        if Validate.outcome_ok o then begin
          bump s "decided/analysis.refine" 1.;
          o
        end
        else begin
          bump s "wasted_s/analysis.refine" wall;
          exhaustive ~original ~transformed
        end
    | v, m ->
        invalid_arg
          (Fmt.str "replay: validator %a under %a" Validate.pp_validator v
             Model.pp m)
  in
  let rewrite (step : Pipeline.step) p =
    let rec go p iters =
      let r = step.pass.Pass.run p in
      if
        step.fixpoint && iters < 16
        && not (Ast.equal_program r.Pass.program p)
      then go r.Pass.program (iters + 1)
      else (r.Pass.program, iters)
    in
    go p 1
  in
  let rec steps p = function
    | [] -> Workload.Accepted
    | (step : Pipeline.step) :: rest -> (
        let p', iters = call "opt.rewrite" (fun () -> rewrite step p) in
        bump s "pass_runs/opt.rewrite" (float_of_int iters);
        if Ast.equal_program p' p then steps p' rest
        else
          let o = validate ~original:p ~transformed:p' in
          match o.Validate.out_method with
          | _ when Validate.outcome_ok o -> steps p' rest
          | Validate.Inconclusive -> Workload.Undecided "inconclusive"
          | _ -> Workload.Rejected step.pass.Pass.name)
  in
  Tracer.start Tracer.Memory;
  let verdict =
    match
      steps (call "lang.parse" (fun () -> Parser.parse_program i.source)) i.spec
    with
    | v -> v
    | exception e -> Workload.Undecided (Printexc.to_string e)
  in
  (* Self time is a layer's span total minus its child layers' totals.
     [Profile]'s per-span self time clamps each span at zero, and the
     exhaustive rung's true self time (the behaviour-set comparison) is
     small enough that replay noise would make the clamp bias it up. *)
  let rows =
    List.filter_map
      (fun (r : Obs.Profile.agg) ->
        match String.split_on_char '.' r.a_name with
        | "bench" :: rest -> Some (String.concat "." rest, r)
        | _ -> None)
      (Obs.Profile.aggregate (Tracer.stop ()))
  in
  let total l =
    match List.assoc_opt l rows with Some r -> r.a_total | None -> 0.
  in
  List.iter
    (fun (l, (r : Obs.Profile.agg)) ->
      let self =
        List.fold_left (fun acc c -> acc -. total c) r.a_total (children l)
      in
      bump s ("self_s/" ^ l) self;
      bump s ("calls/" ^ l) (float_of_int r.a_count);
      bump s "attributed_s" self)
    rows;
  (verdict, s)

(* The counts of the traced phase: [Pipeline.run]'s own registry
   counters, and the rung provenance its outcome records.  A counter the
   registry does not hold is left out of the sample. *)
let traced_counts s (o : Pipeline.outcome) =
  List.iter
    (fun name ->
      Option.iter
        (fun v -> bump s ("registry/" ^ name) (float_of_int v))
        (registry_counter name))
    ("pipeline.rewrite_sites"
    :: List.map (fun c -> "explorer." ^ c) explorer_counters);
  List.iter
    (fun (ps : Pipeline.pass_stats) ->
      Option.iter
        (fun (v : Validate.outcome) ->
          let one k = bump s k 1. in
          one "validations/opt.validate";
          (match Validate.method_tag v with
          | "static" -> one "static_hits/opt.validate"
          | "refine" when v.out_ok -> one "refine_hits/opt.validate"
          | _ -> ());
          if Option.is_some v.out_refine && Option.is_some v.out_report then
            one "escalations/opt.validate";
          if Option.is_some v.out_report then
            one "exhaustive_runs/opt.validate")
        ps.Pipeline.ps_validation)
    o.Pipeline.steps

let phase verdict s =
  Json.Obj
    [
      ("verdict", Json.String (Workload.verdict_to_string verdict));
      ("m", to_json s);
    ]

(* The three phases of one traced input, each handed to [emit] as soon
   as it ends.  The traced run follows the replay directly: a call's wall
   time drifts with the machine's load, and neighbours drift together. *)
let trace_input ~marker ~emit (i : Workload.input) =
  Metrics.set_enabled true;
  let verdict, s = replay ~marker i in
  emit (phase verdict s);
  Metrics.reset_global ();
  Tracer.start Tracer.Memory;
  let t0 = Obs.Clock.now () in
  let result = try Ok (Workload.pipeline i) with e -> Error e in
  let wall = Obs.Clock.elapsed t0 in
  ignore (Tracer.stop ());
  Metrics.set_enabled false;
  let s = Hashtbl.create 16 in
  bump s "wall" wall;
  let verdict =
    match result with
    | Ok o ->
        traced_counts s o;
        Workload.verdict_of o
    | Error e -> Workload.Undecided (Printexc.to_string e)
  in
  emit (phase verdict s);
  let verdict, wall = Workload.run i in
  let s = Hashtbl.create 1 in
  bump s "wall" wall;
  emit (phase verdict s)
