(** The umbrella module: one [open Safeopt] exposes the whole library
    under short names.

    {v
    open Safeopt
    let p = Parser.parse_program "thread { x := 1; }"
    let b = Interp.behaviours p
    v}

    Layered structure (see DESIGN.md):
    - trace semantics: {!Value}, {!Location}, {!Monitor}, {!Thread_id},
      {!Action}, {!Trace}, {!Wildcard}, {!Traceset}, {!Syntax};
    - executions: {!Interleaving}, {!Happens_before}, {!Race},
      {!Behaviour}, {!System}, {!Explorer};
    - the section-6 language: {!Ast}, {!Parser}, {!Pp}, {!Semantics},
      {!Denote}, {!Interp}, {!Thread_system};
    - the paper's transformations: {!Eliminable}, {!Elimination},
      {!Reorder}, {!Unelimination}, {!Unordering}, {!Origin}, {!Safety},
      {!Witness};
    - the syntactic layer: {!Rule}, {!Transform}, {!Passes}, {!Pass},
      {!Pipeline}, {!Liveness}, {!Validate};
    - static analysis: {!Cfg}, {!Dataflow}, {!Lockset}, {!Static_race};
    - memory models: {!Memory_model} (the first-class model interface:
      SC, TSO, PSO behind one [behaviours]/[weak_behaviours]/[replays]
      face), {!Store_buffer} (the shared buffered-machine functor),
      {!Robustness} (fence inference by DRF restoration);
    - corpus and generators: {!Litmus}, {!Corpus}, {!Generators},
      {!Portability} (the pass × model portability matrix and the
      section-8 explanation check);
    - telemetry: {!Metrics}, {!Tracer}, {!Trace_event}, {!Trace_report}. *)

(* trace *)
module Value = Safeopt_trace.Value
module Location = Safeopt_trace.Location
module Monitor = Safeopt_trace.Monitor
module Thread_id = Safeopt_trace.Thread_id
module Action = Safeopt_trace.Action
module Trace = Safeopt_trace.Trace
module Wildcard = Safeopt_trace.Wildcard
module Traceset = Safeopt_trace.Traceset
module Syntax = Safeopt_trace.Syntax

(* exec *)
module Interleaving = Safeopt_exec.Interleaving
module Happens_before = Safeopt_exec.Happens_before
module Race = Safeopt_exec.Race
module Behaviour = Safeopt_exec.Behaviour
module System = Safeopt_exec.System
module Traceset_system = Safeopt_exec.Traceset_system
module Explorer = Safeopt_exec.Explorer

(* lang *)
module Reg = Safeopt_lang.Reg
module Ast = Safeopt_lang.Ast
module Lexer = Safeopt_lang.Lexer
module Parser = Safeopt_lang.Parser
module Pp = Safeopt_lang.Pp
module Semantics = Safeopt_lang.Semantics
module Denote = Safeopt_lang.Denote
module Interp = Safeopt_lang.Interp
module Thread_system = Safeopt_lang.Thread_system

(* core *)
module Eliminable = Safeopt_core.Eliminable
module Elimination = Safeopt_core.Elimination
module Reorder = Safeopt_core.Reorder
module Unelimination = Safeopt_core.Unelimination
module Unordering = Safeopt_core.Unordering
module Origin = Safeopt_core.Origin
module Safety = Safeopt_core.Safety
module Witness = Safeopt_core.Witness

(* opt *)
module Rule = Safeopt_opt.Rule
module Transform = Safeopt_opt.Transform
module Passes = Safeopt_opt.Passes
module Pass = Safeopt_opt.Pass
module Pipeline = Safeopt_opt.Pipeline
module Liveness = Safeopt_opt.Liveness
module Validate = Safeopt_opt.Validate

(* static analysis *)
module Cfg = Safeopt_analysis.Cfg
module Dataflow = Safeopt_analysis.Dataflow
module Lockset = Safeopt_analysis.Lockset
module Static_race = Safeopt_analysis.Static_race

(* memory models *)
module Memory_model = Safeopt_model.Memory_model
module Store_buffer = Safeopt_model.Store_buffer
module Robustness = Safeopt_model.Robustness

(* corpus and generators *)
module Litmus = Safeopt_litmus.Litmus
module Corpus = Safeopt_litmus.Corpus
module Portability = Safeopt_litmus.Portability
module Generators = Safeopt_gen.Generators

(* telemetry *)
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Trace_event = Safeopt_obs.Event
module Trace_report = Safeopt_obs.Report
