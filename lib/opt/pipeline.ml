open Safeopt_trace
open Safeopt_lang
open Safeopt_exec
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event
module Clock = Safeopt_obs.Clock

(* --- The unsafe mutation-control pass ---------------------------------- *)

(* Reorder a store past the lock release that follows it: [l := r;
   unlock m] becomes [unlock m; l := r].  No Fig. 11 rule permits this
   (the reorderable pairs R-WL/R-UW etc. only move accesses {e into}
   critical sections — the "roach motel" direction); moving the store
   out lets it race with accesses the lock used to order it against.
   Registered [safe = false] purely as a mutation-test control: the
   differential validator must reject it with a race witness. *)
let store_past_release (p : Ast.program) =
  let rec swap_list = function
    | Ast.Store (x, r) :: Ast.Unlock m :: rest
      when not (Location.Volatile.mem p.Ast.volatile x) ->
        Ast.Unlock m :: Ast.Store (x, r) :: swap_list rest
    | s :: rest -> swap_stmt s :: swap_list rest
    | [] -> []
  and swap_stmt = function
    | Ast.Block l -> Ast.Block (swap_list l)
    | Ast.If (t, s1, s2) -> Ast.If (t, swap_stmt s1, swap_stmt s2)
    | Ast.While (t, s) -> Ast.While (t, swap_stmt s)
    | s -> s
  in
  { p with Ast.threads = List.map swap_list p.Ast.threads }

(* --- Registry ----------------------------------------------------------- *)

let trace_preserving = "§2.1 trace-preserving (Theorem 5 applies trivially)"

let dead_stores_pass (p : Ast.program) =
  let p', removed = Passes.dead_stores_cfg p in
  {
    Pass.program = p';
    sites =
      List.map
        (fun (tid, path, s) ->
          {
            Pass.site_thread = tid;
            site_rule = Fmt.str "E-WBW/cfg @@ %a" Safeopt_analysis.Cfg.pp_path path;
            site_before = Pp.stmt_compact s;
            site_after = "skip;";
          })
        removed;
  }

let registry =
  [
    Pass.of_rewrite ~name:"constprop" ~kind:Pass.Cleanup
      ~descr:"propagate constant register values" ~paper:trace_preserving
      Passes.constant_propagation;
    Pass.of_rewrite ~name:"copyprop" ~kind:Pass.Cleanup
      ~descr:"propagate register copies" ~paper:trace_preserving
      Passes.copy_propagation;
    Pass.of_chain ~name:"redundancy" ~kind:Pass.Elimination
      ~descr:"Fig. 10 redundancy elimination to a fixpoint"
      ~paper:"Fig. 10 (E-RAR/E-RAW/E-WAR/E-WBW/E-IR), Theorem 3"
      Passes.eliminate_redundancy;
    Pass.of_rewrite ~name:"dead-moves" ~kind:Pass.Cleanup
      ~descr:"drop moves to dead registers (CFG liveness)"
      ~paper:trace_preserving Passes.dead_moves;
    Pass.of_rewrite ~name:"dead-loads" ~kind:Pass.Elimination
      ~descr:"drop non-volatile loads into dead registers (CFG liveness)"
      ~paper:"Definition 1 clause 3 (irrelevant read), Theorem 3"
      Passes.dead_loads;
    Pass.of_sites ~name:"dead-stores" ~kind:Pass.Elimination
      ~descr:"remove stores overwritten on every CFG path"
      ~paper:"Definition 1 clause 5 (overwritten write), Theorem 3"
      dead_stores_pass;
    Pass.of_rewrite ~name:"fold-branches" ~kind:Pass.Cleanup
      ~descr:"resolve literal conditionals and loops" ~paper:trace_preserving
      Passes.fold_branches;
    Pass.of_rewrite ~name:"normalise" ~kind:Pass.Cleanup
      ~descr:"flatten blocks, drop skips" ~paper:trace_preserving
      Passes.normalise;
    Pass.of_rewrite ~name:"unroll1" ~kind:Pass.Cleanup
      ~descr:"peel one iteration off every loop" ~paper:trace_preserving
      (Passes.unroll_loops ~depth:1);
    Pass.of_rewrite ~name:"unroll2" ~kind:Pass.Cleanup
      ~descr:"peel two iterations off every loop" ~paper:trace_preserving
      (Passes.unroll_loops ~depth:2);
    Pass.of_chain ~name:"roach-motel" ~kind:Pass.Reordering
      ~descr:"move accesses into critical sections"
      ~paper:"Fig. 11 (R-WL/R-RL/R-UW/R-UR), Theorem 4" (fun p ->
        Passes.reorder_fixpoint ~prefer:[ "R-WL"; "R-RL"; "R-UW"; "R-UR" ] p);
    Pass.of_rewrite ~name:"store-load-reorder" ~kind:Pass.Reordering
      ~descr:"hoist stores above unrelated preceding loads"
      ~paper:"Fig. 11 (R-RW), Theorem 4; not TSO/PSO-portable \
              (arXiv:2504.17646)"
      Passes.reorder_load_store;
    Pass.of_rewrite ~name:"cross-acquire-elim" ~kind:Pass.Elimination
      ~descr:"redundant-read elimination across lock acquires"
      ~paper:"Definition 1 clause 1 (no release-acquire pair), Theorem 3"
      Passes.eliminate_reads_across_acquires;
    Pass.of_rewrite ~name:"read-intro" ~kind:Pass.Reordering ~safe:false
      ~descr:"introduce an irrelevant read before the first access"
      ~paper:"Fig. 3 step (a)->(b): SC-preserving but can break DRF"
      Passes.introduce_irrelevant_reads;
    Pass.of_rewrite ~name:"unsafe-store-release" ~kind:Pass.Reordering
      ~safe:false
      ~descr:"reorder a store past the following lock release"
      ~paper:"mutation control: no Fig. 11 rule moves an access out of a \
              critical section"
      store_past_release;
  ]

let aliases =
  [
    ("cse", "redundancy");
    ("dse", "dead-stores");
    ("load-hoist", "read-intro");
    ("dce", "dead-moves");
  ]

let find name =
  let name =
    match List.assoc_opt name aliases with Some n -> n | None -> name
  in
  List.find_opt (fun (p : Pass.t) -> p.Pass.name = name) registry

let safe_names =
  List.filter_map
    (fun (p : Pass.t) -> if p.Pass.safe then Some p.Pass.name else None)
    registry

(* --- Spec parsing ------------------------------------------------------- *)

type step = { pass : Pass.t; fixpoint : bool }
type spec = step list

let parse s =
  let items =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if items = [] then Error "empty pipeline spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
          let name, fixpoint =
            if String.length item > 1 && item.[String.length item - 1] = '*'
            then (String.trim (String.sub item 0 (String.length item - 1)), true)
            else (item, false)
          in
          match find name with
          | Some pass -> go ({ pass; fixpoint } :: acc) rest
          | None ->
              Error
                (Fmt.str "unknown pass %S (known: %s)" name
                   (String.concat ", "
                      (List.map (fun (p : Pass.t) -> p.Pass.name) registry)))
    in
    go [] items

let pp_spec ppf spec =
  Fmt.(list ~sep:(any ";") string)
    ppf
    (List.map
       (fun { pass; fixpoint } ->
         pass.Pass.name ^ if fixpoint then "*" else "")
       spec)

(* --- Driver ------------------------------------------------------------- *)

type pass_stats = {
  ps_pass : string;
  ps_iterations : int;
  ps_sites : Pass.site list;
  ps_validation : Validate.outcome option;
  ps_validation_wall : float;
  ps_explorer : Explorer.stats;
}

let pp_pass_stats ppf ps =
  Fmt.pf ppf "@[<v>pass %s: %d site%s in %d iteration%s@," ps.ps_pass
    (List.length ps.ps_sites)
    (if List.length ps.ps_sites = 1 then "" else "s")
    ps.ps_iterations
    (if ps.ps_iterations = 1 then "" else "s");
  List.iter (fun s -> Fmt.pf ppf "  %a@," Pass.pp_site s) ps.ps_sites;
  (match ps.ps_validation with
  | None -> Fmt.pf ppf "  validation: skipped"
  | Some o ->
      Fmt.pf ppf "  validation: %s [%s] (states %d, %.1f ms)"
        (if Validate.outcome_ok o then "ok" else "FAILED")
        (Validate.method_tag o) ps.ps_explorer.Explorer.states
        (ps.ps_validation_wall *. 1000.));
  Fmt.pf ppf "@]"

type outcome = {
  final : Ast.program;
  steps : pass_stats list;
  failure : (string * Ast.program Safeopt_core.Witness.t) option;
}

(* Run one step, iterating [*] steps to a syntactic fixpoint.  Sites
   accumulate across iterations — the provenance of the step is the
   concatenation of each round's rewrites. *)
let run_step ~max_iters { pass; fixpoint } p =
  let rec go p sites_rev iters =
    let r = pass.Pass.run p in
    let sites_rev = List.rev_append r.Pass.sites sites_rev in
    if fixpoint && iters < max_iters
       && not (Ast.equal_program r.Pass.program p)
    then go r.Pass.program sites_rev (iters + 1)
    else (r.Pass.program, List.rev sites_rev, iters)
  in
  go p [] 1

(* Telemetry for one finished step: counters into the global registry
   and the attribute list its "pass" span closes with. *)
let publish_step ps =
  if Metrics.enabled () then begin
    let c name v = Metrics.add (Metrics.counter Metrics.global name) v in
    c "pipeline.passes" 1;
    c "pipeline.rewrite_sites" (List.length ps.ps_sites);
    match ps.ps_validation with
    | None -> ()
    | Some o ->
        c "pipeline.validations" 1;
        if not (Validate.outcome_ok o) then c "pipeline.validation_failures" 1
  end

let step_attrs ps =
  let verdict, method_ =
    match ps.ps_validation with
    | None -> ("skipped", "skipped")
    | Some o ->
        ( (if Validate.outcome_ok o then "ok" else "FAILED"),
          Validate.method_tag o )
  in
  [
    ("iterations", Ev.Int ps.ps_iterations);
    ("sites", Ev.Int (List.length ps.ps_sites));
    ("verdict", Ev.Str verdict);
    ("method", Ev.Str method_);
    ("validation_wall", Ev.Float ps.ps_validation_wall);
    ("states", Ev.Int ps.ps_explorer.Explorer.states);
  ]

(* The one driver: an in-order fold that rewrites a step, validates its
   output against its input, and stops at the first failure.  With
   several jobs the run resolves one pool, and each validation shards
   its two programs' explorations across it. *)
let run ?fuel ?max_states ?(validate_each = false) ?(max_iters = 16) ?jobs
    ?pool ?(validator = Validate.Auto)
    ?(model = Safeopt_model.Memory_model.Sc) spec p =
  let step_run pool step p =
    let p', sites, iters = run_step ~max_iters step p in
    let stats = Explorer.create_stats () in
    let validation =
      if validate_each && not (Ast.equal_program p' p) then begin
        let t0 = Clock.now () in
        let o =
          Validate.run_validator ?fuel ?max_states ~stats ?pool ~model
            validator ~original:p ~transformed:p' ()
        in
        Some (o, Clock.elapsed t0)
      end
      else None
    in
    let ps =
      {
        ps_pass = step.pass.Pass.name;
        ps_iterations = iters;
        ps_sites = sites;
        ps_validation = Option.map fst validation;
        ps_validation_wall =
          (match validation with Some (_, w) -> w | None -> 0.);
        ps_explorer = stats;
      }
    in
    publish_step ps;
    (p', ps)
  in
  let fold pool =
    let rec go p steps_rev = function
      | [] -> { final = p; steps = List.rev steps_rev; failure = None }
      | step :: rest -> (
          let p', ps =
            Tracer.with_span "pass"
              ~attrs:(fun () -> [ ("pass", Ev.Str step.pass.Pass.name) ])
              ~result:(fun (_, ps) -> step_attrs ps)
              (fun () -> step_run pool step p)
          in
          let steps_rev = ps :: steps_rev in
          match ps.ps_validation with
          | Some o when not (Validate.outcome_ok o) ->
              (* reject the pass's output: the pipeline stops at its input *)
              {
                final = p;
                steps = List.rev steps_rev;
                failure =
                  Option.map
                    (fun w -> (ps.ps_pass, w))
                    (Validate.outcome_witness ~original:p ~transformed:p' o);
              }
          | _ -> go p' steps_rev rest)
    in
    go p [] spec
  in
  Tracer.with_span "pipeline"
    ~attrs:(fun () ->
      [
        ("spec", Ev.Str (Fmt.str "%a" pp_spec spec));
        ("model", Ev.Str (Safeopt_model.Memory_model.name model));
      ])
    ~result:(fun o ->
      [
        ("passes", Ev.Int (List.length o.steps));
        ( "verdict",
          Ev.Str
            (match o.failure with
            | None -> "ok"
            | Some (name, _) -> "REJECTED at " ^ name) );
      ])
    (fun () ->
      Par.dispatch ?jobs ?pool
        ~seq:(fun () -> fold None)
        ~par:(fun pool -> fold (Some pool))
        ())

let pp_trace ppf o =
  Fmt.pf ppf "@[<v>";
  List.iter (fun ps -> Fmt.pf ppf "%a@," pp_pass_stats ps) o.steps;
  (match o.failure with
  | None ->
      Fmt.pf ppf "pipeline ok: %d pass%s run@," (List.length o.steps)
        (if List.length o.steps = 1 then "" else "es")
  | Some (name, w) ->
      Fmt.pf ppf "pipeline REJECTED at pass %s:@,%a@," name
        (Safeopt_core.Witness.pp (Fmt.of_to_string Pp.program_to_string))
        w);
  Fmt.pf ppf "@]"
