open Safeopt_exec
open Safeopt_lang
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event
module Model = Safeopt_model.Memory_model

type t = {
  name : string;
  descr : string;
  source : string;
  drf : bool;
  can : Behaviour.t list;
  cannot : Behaviour.t list;
}

type outcome = {
  test : t;
  program : Ast.program;
  drf_actual : bool;
  behaviours : Behaviour.Set.t;
  failures : string list;
}

let program t = Parser.parse_program t.source

let make ~name ~descr ?(drf = true) ?(can = []) ?(cannot = []) source =
  { name; descr; source; drf; can; cannot }

(* One span per test; [check_all]'s parallel path calls [check] from
   pool workers, so corpus runs get per-test spans on each domain's
   lane without further plumbing. *)
let check ?fuel ?max_states ?stats ?(model = Model.Sc) t =
  let run () =
    let p = program t in
    (* Data race freedom is an SC (program-logic) question under every
       model; only the behaviour set is model-relative.  The [can] /
       [cannot] expectations are SC expectations, so checking a weak
       model deliberately surfaces the relaxations: [sb] under TSO
       reports the SC-forbidden [0; 0] as a failure. *)
    let behaviours, drf_actual =
      match model with
      | Model.Sc -> Interp.behaviours_and_drf ?fuel ?max_states ?stats p
      | Model.Tso | Model.Pso ->
          ( Model.behaviours ?fuel ?max_states ?stats model p,
            Interp.is_drf ?fuel ?max_states ?stats p )
    in
    let failures = ref [] in
    let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
    if drf_actual <> t.drf then
      fail "expected %s but found %s"
        (if t.drf then "data race free" else "racy")
        (if drf_actual then "data race free" else "racy");
    List.iter
      (fun b ->
        if not (Behaviour.Set.mem b behaviours) then
          fail "expected possible behaviour %a is not observable" Behaviour.pp
            b)
      t.can;
    List.iter
      (fun b ->
        if Behaviour.Set.mem b behaviours then
          fail "forbidden behaviour %a is observable" Behaviour.pp b)
      t.cannot;
    {
      test = t;
      program = p;
      drf_actual;
      behaviours;
      failures = List.rev !failures;
    }
  in
  Tracer.with_span "litmus"
    ~attrs:(fun () ->
      [ ("test", Ev.Str t.name); ("model", Ev.Str (Model.name model)) ])
    ~result:(fun o ->
      [ ("passed", Ev.Bool (o.failures = [])); ("drf", Ev.Bool o.drf_actual) ])
    run

(* Corpus runs shard one test per pool job (claimed dynamically, so a
   handful of expensive tests do not serialise the rest). *)
let check_all ?fuel ?max_states ?stats ?jobs ?pool ?model tests =
  Explorer.batch_map ?stats ?jobs ?pool
    (check ?fuel ?max_states ?stats ?model)
    tests

let passed o = o.failures = []

let pp_outcome ppf o =
  if passed o then Fmt.pf ppf "%-18s ok" o.test.name
  else
    Fmt.pf ppf "@[<v>%-18s FAILED@ %a@]" o.test.name
      Fmt.(list ~sep:cut string)
      o.failures
