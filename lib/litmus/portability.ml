open Safeopt_lang
open Safeopt_exec
module Model = Safeopt_model.Memory_model
module Pass = Safeopt_opt.Pass
module Pipeline = Safeopt_opt.Pipeline
module Validate = Safeopt_opt.Validate
module Witness = Safeopt_core.Witness
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event

type unsafe_evidence = {
  u_test : string;
  u_witness : Ast.program Witness.t;
  u_behaviour : Behaviour.t option;
  u_replayed : bool;
}

type verdict = Safe | Unsafe of unsafe_evidence | Inert

type cell = {
  c_pass : string;
  c_model : Model.t;
  c_verdict : verdict;
  c_checked : int;
}

type matrix = {
  passes : string list;
  models : Model.t list;
  tests : string list;
  cells : cell list;
}

let verdict_tag = function
  | Safe -> "safe"
  | Unsafe _ -> "unsafe"
  | Inert -> "inert"

let cell m ~pass ~model =
  List.find_opt
    (fun c -> String.equal c.c_pass pass && Model.equal c.c_model model)
    m.cells

(* A cell's verdict is corpus-relative: [Safe] means "no corpus test
   exhibits a violation", not a proof.  [Unsafe] carries the first
   failing test, a structured counterexample naming the model, and a
   replay bit: the witness behaviour was re-enumerated from scratch in
   the transformed program (present) and the original (absent) under
   the cell's model, so the matrix never reports a counterexample the
   machine cannot actually reproduce. *)
let check_cell ?fuel ?max_states ?stats ((pass : Pass.t), model, changed) =
  let rec go = function
    | [] -> if changed = [] then Inert else Safe
    | (name, p, p') :: rest -> (
        let o =
          Validate.run_validator ?fuel ?max_states ?stats ~model Validate.Auto
            ~original:p ~transformed:p' ()
        in
        if Validate.outcome_ok o then go rest
        else
          match Validate.outcome_witness ~original:p ~transformed:p' o with
          | None -> go rest
          | Some w ->
              let b =
                match w.Witness.evidence with
                | Witness.New_behaviour b -> Some b
                | _ -> None
              in
              let replayed =
                match b with
                | None -> false
                | Some b ->
                    Model.replays ?fuel ?max_states model p' b
                    && not (Model.replays ?fuel ?max_states model p b)
              in
              Unsafe
                {
                  u_test = name;
                  u_witness = w;
                  u_behaviour = b;
                  u_replayed = replayed;
                })
  in
  let v =
    Tracer.with_span "portability.cell"
      ~attrs:(fun () ->
        [ ("pass", Ev.Str pass.Pass.name); ("model", Ev.Str (Model.name model)) ])
      ~result:(fun v -> [ ("verdict", Ev.Str (verdict_tag v)) ])
      (fun () -> go changed)
  in
  {
    c_pass = pass.Pass.name;
    c_model = model;
    c_verdict = v;
    c_checked = List.length changed;
  }

let unsafe_cells m =
  List.filter_map
    (fun c ->
      match c.c_verdict with Unsafe u -> Some (c, u) | _ -> None)
    m.cells

let sweep ?fuel ?max_states ?stats ?jobs ?pool ?(passes = Pipeline.registry)
    ?(models = Model.all) ?(tests = Corpus.all) () =
  Tracer.with_span "portability.sweep"
    ~attrs:(fun () ->
      [
        ("passes", Ev.Int (List.length passes));
        ("models", Ev.Int (List.length models));
        ("tests", Ev.Int (List.length tests));
      ])
    ~result:(fun m -> [ ("unsafe", Ev.Int (List.length (unsafe_cells m))) ])
    (fun () ->
      let programs =
        List.map (fun (t : Litmus.t) -> (t.Litmus.name, Litmus.program t)) tests
      in
      (* The rewrite is model-independent: apply the pass once per test
         and validate only the programs it actually changed, under every
         model.  The cells are independent: each is one batch job. *)
      let cells =
        List.concat_map
          (fun (pass : Pass.t) ->
            let changed =
              List.filter_map
                (fun (name, p) ->
                  let r = pass.Pass.run p in
                  if Ast.equal_program r.Pass.program p then None
                  else Some (name, p, r.Pass.program))
                programs
            in
            List.map (fun model -> (pass, model, changed)) models)
          passes
        |> Explorer.batch_map ?stats ?jobs ?pool
             (check_cell ?fuel ?max_states ?stats)
      in
      {
        passes = List.map (fun (p : Pass.t) -> p.Pass.name) passes;
        models;
        tests = List.map (fun (t : Litmus.t) -> t.Litmus.name) tests;
        cells;
      })

let pp_verdict ppf = function
  | Safe -> Fmt.string ppf "safe"
  | Unsafe u -> Fmt.pf ppf "UNSAFE(%s)" u.u_test
  | Inert -> Fmt.string ppf "inert"

let pp ppf m =
  let width =
    List.fold_left (fun acc p -> max acc (String.length p)) 4 m.passes
  in
  let cell_width =
    4
    + List.fold_left
        (fun acc c ->
          max acc (String.length (Fmt.str "%a" pp_verdict c.c_verdict)))
        4 m.cells
  in
  Fmt.pf ppf "%-*s" width "pass";
  List.iter
    (fun model -> Fmt.pf ppf "  %-*s" cell_width (Model.name model))
    m.models;
  Fmt.pf ppf "@.";
  List.iter
    (fun pass ->
      Fmt.pf ppf "%-*s" width pass;
      List.iter
        (fun model ->
          let s =
            match cell m ~pass ~model with
            | Some c -> Fmt.str "%a" pp_verdict c.c_verdict
            | None -> "-"
          in
          Fmt.pf ppf "  %-*s" cell_width s)
        m.models;
      Fmt.pf ppf "@.")
    m.passes

let pp_witnesses ppf m =
  List.iter
    (fun (c, u) ->
      Fmt.pf ppf "@.%s under %a: unsafe on litmus test %s@." c.c_pass Model.pp
        c.c_model u.u_test;
      (match u.u_behaviour with
      | Some b ->
          Fmt.pf ppf "  new behaviour %a (replayed from scratch: %b)@."
            Behaviour.pp b u.u_replayed
      | None -> ());
      Fmt.pf ppf "  @[<v>%a@]@." (Witness.pp Pp.program) u.u_witness)
    (unsafe_cells m)

(* --- Section 8: weak behaviours explained by SC rewrites -------------- *)

let explaining_rules = function
  | Model.Sc -> []
  | Model.Tso -> [ "R-WR"; "E-RAW" ]
  | Model.Pso -> [ "R-WW"; "R-WR"; "E-RAW" ]

(* The claim is [model(p) ⊆ ⋃ SC(q)] over the programs [q] reachable
   from [p] through the rules.  Reachability lists [p] first, and
   [model(p) \ weak ⊆ SC(p)], so the inclusion holds exactly when every
   weak behaviour is an SC behaviour of some rewrite.  Hence an empty
   weak set needs no rewrite, [p] itself covers none of the weak set
   (its SC behaviours are what [weak] removed), and the fold stops as
   soon as the weak set is covered. *)
let explained_by_transformations ?fuel ?max_states ?(max_programs = 2_000)
    ?weak m p =
  let weak =
    match weak with
    | Some w -> w
    | None -> Model.weak_behaviours ?fuel ?max_states m p
  in
  let rec cover weak = function
    | [] -> false
    | q :: qs ->
        let weak =
          Behaviour.Set.diff weak
            (Interp.behaviours ?fuel ?max_states q)
        in
        Behaviour.Set.is_empty weak || cover weak qs
  in
  if Behaviour.Set.is_empty weak then true
  else
    (* the silent move-commutation rules only make desugared stores
       adjacent; they are identity transformations on tracesets *)
    let rules =
      Safeopt_opt.Rule.moves
      @ List.filter_map Safeopt_opt.Rule.by_name (explaining_rules m)
    in
    match Safeopt_opt.Transform.reachable ~max_programs rules p with
    | _p :: rewrites -> cover weak rewrites
    | [] -> false
