(* drfopt — the command-line face of the safeopt library.

   Subcommands:
     run         interpret a program: behaviours + DRF verdict; under
                 --model tso|pso also the section-8 weak-behaviour report
     drf         data-race check with a witness execution
     analyze     static lockset analysis: DRF certificate or race report
     transform   apply a named Fig. 10/11 rule
     optimize    run a pass pipeline, validating each pass on request
     validate    compare two programs under the DRF guarantee
     deadlock    search for a reachable deadlock
     denote      print the bounded traceset denotation
     eliminable  classify each index of a trace per Definition 1
     chain       validate a chain of transformations
     robust      infer the volatile annotations that restore DRF
     litmus      run the built-in corpus
     matrix      print the section-4 reorderability matrix
     portability the pass x memory-model portability matrix
     report      aggregate a --trace-out JSONL trace offline
                 (--profile hot spans, --flamegraph collapsed stacks)
     bench       benchmark utilities: `bench diff` compares BENCH_*.json
                 files with noise-aware thresholds (the CI perf gate)

   The analysis subcommands share the telemetry flags --trace-out FILE,
   --trace-format jsonl|chrome, --metrics and the live-telemetry trio
   --heartbeat MS / --heartbeat-out FILE / --progress (see [setup_obs]);
   the semantic subcommands (run, validate, optimize, litmus) share
   --model sc|tso|pso selecting the memory model whose behaviours are
   enumerated. *)

open Cmdliner
open Safeopt_lang
open Safeopt_exec

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  try Ok (Parser.parse_program (read_file path)) with
  | Parser.Error (pos, msg) ->
      Error (Printf.sprintf "%s:%d:%d: %s" path pos.Lexer.line pos.Lexer.col msg)
  | Lexer.Error (pos, msg) ->
      Error (Printf.sprintf "%s:%d:%d: %s" path pos.Lexer.line pos.Lexer.col msg)
  | Sys_error e -> Error e

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Program in the concrete syntax.")

let fuel_arg =
  Arg.(
    value & opt int 64
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Per-thread action budget for programs with loops.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print exploration statistics (states visited, transitions, \
              memo hits, POR cuts, peak frontier depth, wall time) after \
              the analysis.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Run explorations across $(docv) domains (default 1 = \
              sequential; 0 = all recommended cores).  Verdicts, behaviour \
              sets and counts are identical at any job count.")

module Model = Safeopt_model.Memory_model

let model_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Model.of_string s)),
      fun ppf m -> Fmt.string ppf (Model.name m) )

let model_arg =
  Arg.(
    value & opt model_conv Model.Sc
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Memory model whose behaviours are enumerated: $(b,sc) \
              (default: the interleaving semantics, racy programs catch \
              fire), $(b,tso) (one FIFO store buffer per thread with \
              store-to-load forwarding) or $(b,pso) (per-location \
              buffers).  Data-race freedom stays an SC question under \
              every model.")

let check_jobs jobs =
  if jobs < 0 then begin
    Fmt.epr "drfopt: --jobs must be non-negative@.";
    exit 2
  end;
  jobs

(* Thread one stats sink through [f]'s explorations, print it, then
   exit with [f]'s code — so a failing run still reports what it cost. *)
let with_stats enabled f =
  let stats = if enabled then Some (Explorer.create_stats ()) else None in
  let code = f stats in
  Option.iter (fun s -> Fmt.pr "%a@." Explorer.pp_stats s) stats;
  if code <> 0 then exit code

let or_die = function
  | Ok v -> v
  | Error e ->
      Fmt.epr "drfopt: %s@." e;
      exit 2

let print_behaviours bs =
  Fmt.pr "@[<v>behaviours (%d, showing maximal):@ %a@]@."
    (Behaviour.Set.cardinal bs)
    Fmt.(list ~sep:cut string)
    (Interp.behaviour_strings bs)

(* --- telemetry flags (shared by the analysis subcommands) --- *)

module Obs = Safeopt_obs

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a structured span/event trace of the run to $(docv) \
              (spans per exploration, pass, validation and litmus test; \
              counter samples for queue depth and throughput).  Inspect it \
              with $(b,drfopt report) or load the $(b,chrome) format in \
              Perfetto.")

let trace_format_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("jsonl", Obs.Tracer.Jsonl); ("chrome", Obs.Tracer.Chrome_trace) ])
        Obs.Tracer.Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,jsonl) (one event per line, the input \
              of $(b,drfopt report)) or $(b,chrome) (Chrome trace_event \
              JSON with one lane per domain, loadable in Perfetto or \
              chrome://tracing).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect the process-global metrics registry (counters, \
              gauges, latency histograms) during the run and print its \
              summary on exit.")

let heartbeat_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "heartbeat" ] ~docv:"MS"
        ~doc:"Sample live progress every $(docv) milliseconds into a \
              versioned JSONL heartbeat file (see $(b,--heartbeat-out)): \
              each line freezes the metrics registry plus the explorer's \
              in-flight progress (states, states/sec, peak frontier, \
              steals, lock waits).  Snapshots are monotone and the final \
              line equals the end-of-run metrics.  Implies metrics \
              collection.")

let heartbeat_out_arg =
  Arg.(
    value
    & opt string "heartbeat.jsonl"
    & info [ "heartbeat-out" ] ~docv:"FILE"
        ~doc:"Where $(b,--heartbeat) appends its JSONL snapshots (default \
              $(b,heartbeat.jsonl)); each line is flushed as written, so a \
              crashed run keeps its last heartbeat.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Rewrite a live one-line progress summary on stderr while the \
              run is in flight (states, states/sec, frontier).  Uses the \
              $(b,--heartbeat) interval when given, 500 ms otherwise; \
              implies metrics collection.")

(* Subcommands terminate via [exit] from several places, so the
   finaliser that writes the trace file and prints the metrics summary
   is registered with [at_exit]; it runs before the stdlib's formatter
   flushes (registered earlier, hence later in at_exit order). *)
(* The heartbeat's progress view: the explorer's live tracker (registry
   + records still counting, consistent and monotone) plus the arena
   gauge. *)
let live_progress_fields () =
  let arena =
    match Obs.Metrics.(find_gauge global "par.arena_words") with
    | Some g -> g.Obs.Metrics.g_last
    | None -> 0.
  in
  Explorer.stats_fields (Explorer.live_progress ())
  @ [ ("arena_words", Obs.Json.Float arena) ]

let setup_obs trace_out format metrics heartbeat heartbeat_out progress =
  let sampling = heartbeat <> None || progress in
  let live = metrics || trace_out <> None || sampling in
  if live then begin
    Obs.Metrics.reset_global ();
    Obs.Metrics.set_enabled true
  end;
  Option.iter
    (fun path -> Obs.Tracer.start (Obs.Tracer.File { path; format }))
    trace_out;
  if sampling then
    Obs.Snapshot.start
      ?path:(Option.map (fun _ -> heartbeat_out) heartbeat)
      ~echo:progress
      ~interval_ms:(Option.value ~default:500 heartbeat)
      live_progress_fields;
  if live then
    at_exit (fun () ->
        (* the sampler first: its final snapshot must equal the
           end-of-run registry, and it must not observe the teardown *)
        Obs.Snapshot.stop ();
        if Obs.Tracer.enabled () then
          (* final value of every metric as trailing counter samples, so
             the trace file is self-contained; the explorer's two
             running maxima end at their maximum, whichever domain
             recorded last *)
          List.iter
            (fun n ->
              match Obs.Metrics.(find_counter global n) with
              | Some v -> Obs.Tracer.counter n (float_of_int v)
              | None -> (
                  match Obs.Metrics.(find_gauge global n) with
                  | Some g ->
                      Obs.Tracer.counter n
                        (match n with
                        | "explorer.domains" | "explorer.peak_frontier" ->
                            g.Obs.Metrics.g_max
                        | _ -> g.Obs.Metrics.g_last)
                  | None -> ()))
            Obs.Metrics.(names global);
        ignore (Obs.Tracer.stop () : Obs.Event.t list);
        if metrics then Fmt.pr "%a@." Obs.Metrics.pp Obs.Metrics.global)

let obs_term =
  Term.(
    const setup_obs $ trace_out_arg $ trace_format_arg $ metrics_arg
    $ heartbeat_arg $ heartbeat_out_arg $ progress_arg)

(* --- run --- *)

(* The section-8 report from the model's behaviour set [bs]: its weak
   behaviours against SC (and against TSO under PSO), and whether SC
   rewrites through the model's explaining rules reproduce them. *)
let print_weak ~fuel ?stats ~jobs model p bs =
  let weak_against than =
    Behaviour.Set.diff bs (Model.behaviours ~fuel ?stats ~jobs than p)
  in
  let weak = weak_against Model.Sc in
  Fmt.pr "weak (%s minus SC): %a@."
    (String.uppercase_ascii (Model.name model))
    Behaviour.Set.pp weak;
  if Model.equal model Model.Pso then
    Fmt.pr "weak (PSO minus TSO): %a@." Behaviour.Set.pp
      (weak_against Model.Tso);
  Fmt.pr "explained by %s transformations: %b@."
    (String.concat " + " (Safeopt_litmus.Portability.explaining_rules model))
    (Safeopt_litmus.Portability.explained_by_transformations ~fuel ~weak model
       p)

let run_cmd =
  let run () file fuel stats jobs model =
    let jobs = check_jobs jobs in
    let p = or_die (load file) in
    Fmt.pr "%a@.@." Pp.program p;
    with_stats stats (fun stats ->
        if not (Model.equal model Model.Sc) then
          Fmt.pr "memory model: %s@." (Model.name model);
        let bs = Model.behaviours ~fuel ?stats ~jobs model p in
        print_behaviours bs;
        Fmt.pr "data race free: %b@." (Interp.is_drf ~fuel ?stats ~jobs p);
        if not (Model.equal model Model.Sc) then
          print_weak ~fuel ?stats ~jobs model p bs;
        0)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Enumerate behaviours under $(b,--model) (default SC) and check \
             race freedom.  Under $(b,tso) or $(b,pso), also print the \
             weak behaviours (those SC lacks, and under $(b,pso) those TSO \
             lacks) and whether the section-8 transformations explain \
             them: R-WR and E-RAW for TSO, plus R-WW for PSO")
    Term.(
      const run $ obs_term $ file_arg $ fuel_arg $ stats_arg $ jobs_arg
      $ model_arg)

(* --- drf --- *)

let drf_cmd =
  let run () file fuel =
    let p = or_die (load file) in
    match Interp.find_race ~fuel p with
    | None -> Fmt.pr "data race free@."
    | Some i ->
        Fmt.pr "@[<v>RACY; witness execution (last two actions conflict):@ %a@]@."
          Interleaving.pp i;
        exit 1
  in
  Cmd.v
    (Cmd.info "drf" ~doc:"Check data race freedom, with witness")
    Term.(const run $ obs_term $ file_arg $ fuel_arg)

(* --- analyze --- *)

let analyze_cmd =
  let run () file fuel stats jobs =
    let jobs = check_jobs jobs in
    let p = or_die (load file) in
    let open Safeopt_analysis in
    Fmt.pr "may-access summary:@.";
    List.iter (fun s -> Fmt.pr "  %a@." Lockset.pp_summary s) (Lockset.summarise p);
    let report = Static_race.analyse p in
    Fmt.pr "per-access locksets:@.";
    List.iter (fun a -> Fmt.pr "  %a@." Lockset.pp_access a) report.accesses;
    match report.races with
    | [] -> Fmt.pr "verdict: DRF (certified statically, no enumeration)@."
    | races ->
        Fmt.pr "potential races (%d):@." (List.length races);
        List.iter
          (fun pr -> Fmt.pr "%a@." (Static_race.pp_race_with_windows p) pr)
          races;
        if not stats then begin
          Fmt.pr "verdict: POTENTIAL RACES (needs exhaustive enumeration)@.";
          exit 1
        end
        else
          (* With --stats, settle the static "unknown" by running the
             exhaustive enumeration the verdict calls for. *)
          with_stats stats (fun stats ->
              match Interp.find_race ~fuel ?stats ~jobs p with
              | Some i ->
                  Fmt.pr
                    "@[<v>verdict: RACY (exhaustive enumeration); witness:@ \
                     %a@]@."
                    Interleaving.pp i;
                  1
              | None ->
                  Fmt.pr
                    "verdict: DRF (exhaustive enumeration; the static \
                     analysis was imprecise)@.";
                  0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static DRF certification: per-access locksets and the race \
             pairs the lockset analysis cannot rule out.  With $(b,--stats), \
             unresolved potential races are settled by the exhaustive \
             enumeration and its exploration statistics are printed")
    Term.(const run $ obs_term $ file_arg $ fuel_arg $ stats_arg $ jobs_arg)

(* --- transform --- *)

let transform_cmd =
  let rule_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "rule"; "r" ] ~docv:"RULE"
          ~doc:"Rule name (E-RAR, E-RAW, E-WAR, E-WBW, E-IR, R-RR, R-WW, \
                R-WR, R-RW, R-WL, R-RL, R-UW, R-UR, R-XR, R-XW, I-IR).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Print every single-step result instead of the first.")
  in
  let run file rule all =
    let p = or_die (load file) in
    if all then
      match Safeopt_opt.Rule.by_name rule with
      | None -> or_die (Error (Printf.sprintf "unknown rule %S" rule))
      | Some r ->
          List.iteri
            (fun i s ->
              Fmt.pr "--- result %d ---@.%a@." i Pp.program
                s.Safeopt_opt.Transform.after)
            (Safeopt_opt.Transform.program_rewrites [ r ] p)
    else
      match Safeopt_opt.Transform.apply_named rule p with
      | Ok p' -> Fmt.pr "%a@." Pp.program p'
      | Error e -> or_die (Error e)
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Apply a Fig. 10/11 rule")
    Term.(const run $ file_arg $ rule_arg $ all_arg)

(* --- the validator ladder flag (optimize + validate) --- *)

let validator_arg =
  let mode_conv =
    Arg.enum
      [
        ("static", Safeopt_opt.Validate.Static);
        ("refine", Safeopt_opt.Validate.Refinement);
        ("exhaustive", Safeopt_opt.Validate.Exhaustive);
        ("auto", Safeopt_opt.Validate.Auto);
      ]
  in
  Arg.(
    value
    & opt mode_conv Safeopt_opt.Validate.Auto
    & info [ "validator" ] ~docv:"MODE"
        ~doc:"How to decide the DRF guarantee for a program pair: \
              $(b,static) (syntactic equality only), $(b,refine) \
              (thread-local refinement — per-thread traceset matching, no \
              interleaving enumeration), $(b,exhaustive) (full \
              interleaving enumeration) or $(b,auto) (default: climb the \
              ladder and stop at the first rung that decides; refine \
              counterexamples escalate rather than reject, so the verdict \
              always equals $(b,exhaustive)'s).")

(* --- optimize (pass-manager pipeline) --- *)

let optimize_cmd =
  let pipeline_arg =
    Arg.(
      value
      & opt string "constprop;copyprop;cse*;dead-moves;dse;normalise"
      & info [ "pipeline" ] ~docv:"SPEC"
          ~doc:"Semicolon-separated pass names, each optionally starred to \
                iterate to a fixpoint, e.g. 'cse;dse;load-hoist*'. Aliases: \
                cse=redundancy, dse=dead-stores, load-hoist=read-intro, \
                dce=dead-moves.")
  in
  let validate_each_arg =
    Arg.(
      value & flag
      & info [ "validate-each" ]
          ~doc:"Differentially validate every pass's output against its \
                input under $(b,--validator) (default auto: syntactic \
                equality, then thread-local refinement, then exhaustive \
                enumeration); stop at the first failing pass with a \
                counterexample witness.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace-passes" ]
          ~doc:"Print one block per executed pass: rewrite sites \
                (provenance), validation verdict, exploration states and \
                validation time.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered passes and exit.")
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Program in the concrete syntax (omit with $(b,--list)).")
  in
  let run () file fuel pipeline validate_each trace list_passes stats jobs
      validator model =
    let jobs = check_jobs jobs in
    let open Safeopt_opt in
    if list_passes then (
      List.iter (fun p -> Fmt.pr "%a@." Pass.pp p) Pipeline.registry;
      exit 0);
    let file =
      match file with
      | Some f -> f
      | None ->
          Fmt.epr "drfopt: FILE required (or use --list)@.";
          exit 2
    in
    let p = or_die (load file) in
    let spec = or_die (Pipeline.parse pipeline) in
    with_stats stats (fun stats ->
        let o =
          Pipeline.run ~fuel ~validate_each ~jobs ~validator ~model spec p
        in
        (* the pipeline keeps one explorer record per executed pass;
           fold them into the sink so --stats reports the whole run *)
        Option.iter
          (fun sink ->
            List.iter
              (fun ps ->
                Explorer.merge_stats ~into:sink ps.Pipeline.ps_explorer)
              o.Pipeline.steps)
          stats;
        if trace then Fmt.pr "%a" Pipeline.pp_trace o;
        Fmt.pr "--- optimised ---@.%a@." Pp.program o.final;
        let sites =
          List.fold_left
            (fun n ps -> n + List.length ps.Pipeline.ps_sites)
            0 o.Pipeline.steps
        in
        Fmt.pr "%d rewrite site%s across %d pass%s@." sites
          (if sites = 1 then "" else "s")
          (List.length o.Pipeline.steps)
          (if List.length o.Pipeline.steps = 1 then "" else "es");
        match o.Pipeline.failure with
        | Some (name, w) ->
            (* the trace rendering already shows the witness *)
            if not trace then
              Fmt.pr "@[<v>REJECTED at pass %s:@ %a@]@." name
                (Safeopt_core.Witness.pp
                   (Fmt.of_to_string Pp.program_to_string))
                w
            else Fmt.pr "REJECTED at pass %s@." name;
            1
        | None -> 0)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Run a pass-manager pipeline with per-pass provenance and \
             differential validation under $(b,--model) (default sc) — a \
             pipeline accepted under SC may be rejected under tso/pso")
    Term.(
      const run $ obs_term $ opt_file_arg $ fuel_arg $ pipeline_arg
      $ validate_each_arg $ trace_arg $ list_arg $ stats_arg $ jobs_arg
      $ validator_arg $ model_arg)

(* --- validate --- *)

let validate_cmd =
  let transformed_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"TRANSFORMED" ~doc:"Transformed program.")
  in
  let relation_arg =
    let rel_conv =
      Arg.enum
        [
          ("none", Safeopt_opt.Validate.Unchecked);
          ("elim", Safeopt_opt.Validate.Elimination);
          ("reorder", Safeopt_opt.Validate.Reordering);
          ("elim-reorder", Safeopt_opt.Validate.Elimination_then_reordering);
        ]
    in
    Arg.(
      value
      & opt rel_conv Safeopt_opt.Validate.Unchecked
      & info [ "relation" ]
          ~doc:"Also check the semantic traceset relation on bounded \
                denotations: $(b,elim), $(b,reorder) or $(b,elim-reorder).")
  in
  let max_len_arg =
    Arg.(
      value & opt int 10
      & info [ "max-len" ]
          ~doc:"Trace length bound for the refine rung's per-thread \
                enumerations and for the $(b,--relation) check.")
  in
  let run () orig_file trans_file relation validator max_len fuel stats jobs
      model =
    let jobs = check_jobs jobs in
    let original = or_die (load orig_file) in
    let transformed = or_die (load trans_file) in
    let open Safeopt_opt in
    if relation <> Validate.Unchecked && not (Model.equal model Model.Sc) then begin
      Fmt.epr
        "drfopt: --relation argues over SC tracesets; it cannot be combined \
         with --model %s@."
        (Model.name model);
      exit 2
    end;
    with_stats stats (fun stats ->
        match relation with
        | Validate.Unchecked ->
            let o =
              Validate.run_validator ~fuel ?stats ~jobs ~max_len ~model
                validator ~original ~transformed ()
            in
            Fmt.pr "%a@." Validate.pp_outcome o;
            Fmt.pr "DRF guarantee: %s@."
              (if Validate.outcome_ok o then "HOLDS"
               else if Validate.method_tag o = "inconclusive" then "UNDECIDED"
               else "VIOLATED");
            if Validate.outcome_ok o then 0 else 1
        | r ->
            let report =
              Validate.validate_semantic ~fuel ?stats ~jobs ~max_len
                ~relation:r ~original ~transformed ()
            in
            Fmt.pr "%a@." Validate.pp_report report;
            Fmt.pr "DRF guarantee: %s@."
              (if Validate.ok report then "HOLDS" else "VIOLATED");
            if Validate.ok report then 0 else 1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a transformation against the DRF guarantee (Theorems 1-4). \
             Without $(b,--relation), the pair is decided under \
             $(b,--validator) (default auto) and $(b,--model) (default sc; \
             under tso/pso the criterion is plain behaviour inclusion and \
             the ladder escalates to model-exhaustive enumeration); with \
             $(b,--relation), the claimed semantic traceset relation is \
             checked by the legacy SC exhaustive path")
    Term.(
      const run $ obs_term $ file_arg $ transformed_arg $ relation_arg
      $ validator_arg $ max_len_arg $ fuel_arg $ stats_arg $ jobs_arg
      $ model_arg)

(* --- denote --- *)

let denote_cmd =
  let max_len_arg =
    Arg.(
      value & opt int 8
      & info [ "max-len" ] ~docv:"N" ~doc:"Trace length bound.")
  in
  let run file max_len =
    let p = or_die (load file) in
    let universe = Denote.universe p in
    let ts = Denote.traceset ~universe ~max_len p in
    Fmt.pr "value universe: %a@."
      Fmt.(brackets (list ~sep:comma int))
      universe;
    Fmt.pr "traces (length <= %d): %d; maximal:@." max_len
      (Safeopt_trace.Traceset.cardinal ts);
    List.iter
      (fun t -> Fmt.pr "  %a@." Safeopt_trace.Trace.pp t)
      (Safeopt_trace.Traceset.maximal ts)
  in
  Cmd.v
    (Cmd.info "denote"
       ~doc:"Print the bounded traceset denotation [[P]] of a program")
    Term.(const run $ file_arg $ max_len_arg)

(* --- litmus --- *)

let litmus_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Run a single test by name.")
  in
  let filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:"Run only the tests whose name contains $(docv).")
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let run () name filter stats jobs model =
    let jobs = check_jobs jobs in
    let tests =
      match (name, filter) with
      | Some n, _ -> (
          match Safeopt_litmus.Corpus.by_name n with
          | Some t -> [ t ]
          | None ->
              Fmt.epr "unknown litmus test %S@." n;
              exit 2)
      | None, Some sub -> (
          match
            List.filter
              (fun (t : Safeopt_litmus.Litmus.t) ->
                contains t.Safeopt_litmus.Litmus.name sub)
              Safeopt_litmus.Corpus.all
          with
          | [] ->
              Fmt.epr "no litmus test name contains %S@." sub;
              exit 2
          | ts -> ts)
      | None, None -> Safeopt_litmus.Corpus.all
    in
    with_stats stats (fun stats ->
        if not (Model.equal model Model.Sc) then
          Fmt.pr
            "memory model: %s (expectations are SC expectations; failures \
             below are the model's relaxations)@."
            (Model.name model);
        let outcomes =
          Safeopt_litmus.Litmus.check_all ?stats ~jobs ~model tests
        in
        List.iter
          (fun o -> Fmt.pr "%a@." Safeopt_litmus.Litmus.pp_outcome o)
          outcomes;
        if List.for_all Safeopt_litmus.Litmus.passed outcomes then 0 else 1)
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run the built-in litmus corpus, sharded across $(b,--jobs) \
             domains.  A positional $(b,NAME) runs one test; \
             $(b,--filter) runs the subset whose names contain a \
             substring (e.g. $(b,--filter atomic) for the lock-free \
             pack).  With $(b,--stats), print the exploration statistics \
             accumulated across the whole corpus.  With $(b,--model tso) \
             or $(b,pso), behaviours are enumerated on the weak machine \
             while the expectations stay SC, surfacing each test's \
             relaxations as failures")
    Term.(
      const run $ obs_term $ name_arg $ filter_arg $ stats_arg $ jobs_arg
      $ model_arg)

(* --- portability --- *)

let portability_cmd =
  let pass_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pass" ] ~docv:"NAME"
          ~doc:"Sweep a single registered pass instead of the whole \
                registry.")
  in
  let no_witnesses_arg =
    Arg.(
      value & flag
      & info [ "no-witnesses" ]
          ~doc:"Print the table only, without the per-cell \
                counterexamples.")
  in
  let run () fuel stats jobs pass no_witnesses =
    let jobs = check_jobs jobs in
    let open Safeopt_litmus in
    let passes =
      match pass with
      | None -> Safeopt_opt.Pipeline.registry
      | Some name -> (
          match Safeopt_opt.Pipeline.find name with
          | Some p -> [ p ]
          | None ->
              Fmt.epr "drfopt: unknown pass %S@." name;
              exit 2)
    in
    with_stats stats (fun stats ->
        let m = Portability.sweep ~fuel ?stats ~jobs ~passes () in
        Fmt.pr "%a" Portability.pp m;
        if not no_witnesses then Fmt.pr "%a" Portability.pp_witnesses m;
        0)
  in
  Cmd.v
    (Cmd.info "portability"
       ~doc:"Sweep every registered pass over the litmus corpus under each \
             memory model (sc, tso, pso) and print the portability matrix: \
             per cell, $(b,safe) (every changed corpus program validates), \
             $(b,UNSAFE) (with the first failing test and a replayed \
             counterexample) or $(b,inert) (the pass rewrote no corpus \
             program).  The flagship asymmetry: store-load-reorder is safe \
             under SC (Fig. 11 R-RW, Theorem 4) but unsafe under tso/pso")
    Term.(
      const run $ obs_term $ fuel_arg $ stats_arg $ jobs_arg $ pass_arg
      $ no_witnesses_arg)

(* --- eliminable --- *)

let eliminable_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"A trace in the paper's notation, e.g. \
                \"S(0); W[x=1]; R[y=*]; R[x=1]; X(1)\".")
  in
  let volatile_arg =
    Arg.(
      value & opt (list string) []
      & info [ "volatile" ] ~docv:"LOCS" ~doc:"Volatile locations.")
  in
  let run trace vols =
    let w =
      try Safeopt_trace.Syntax.parse_wildcard trace
      with Safeopt_trace.Syntax.Error (pos, m) ->
        or_die (Error (Printf.sprintf "at offset %d: %s" pos m))
    in
    let vol = Safeopt_trace.Location.Volatile.of_list vols in
    Fmt.pr "%a@." Safeopt_trace.Wildcard.pp w;
    List.iteri
      (fun i e ->
        match Safeopt_core.Eliminable.classify vol w i with
        | Some k ->
            Fmt.pr "  %2d %-10s eliminable: %a%s@." i
              (Fmt.str "%a" Safeopt_trace.Wildcard.pp_elt e)
              Safeopt_core.Eliminable.pp_kind k
              (if Safeopt_core.Eliminable.properly_eliminable vol w i then ""
               else "  (not composable: last-action clause)")
        | None ->
            Fmt.pr "  %2d %-10s -@." i
              (Fmt.str "%a" Safeopt_trace.Wildcard.pp_elt e))
      w
  in
  Cmd.v
    (Cmd.info "eliminable"
       ~doc:"Classify each index of a trace per Definition 1")
    Term.(const run $ trace_arg $ volatile_arg)

(* --- matrix --- *)

let matrix_cmd =
  let run () = Fmt.pr "%a@?" Safeopt_core.Reorder.pp_matrix () in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Print the section-4 reorderability matrix")
    Term.(const run $ const ())

(* --- deadlock --- *)

let deadlock_cmd =
  let run () file fuel =
    let p = or_die (load file) in
    match Interp.find_deadlock ~fuel p with
    | None -> Fmt.pr "no deadlock reachable@."
    | Some i ->
        Fmt.pr "@[<v>DEADLOCK after:@ %a@]@." Interleaving.pp i;
        exit 1
  in
  Cmd.v
    (Cmd.info "deadlock" ~doc:"Search for a reachable deadlock")
    Term.(const run $ obs_term $ file_arg $ fuel_arg)

(* --- chain --- *)

let chain_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILES" ~doc:"Chain of programs, original first.")
  in
  let run () files fuel =
    let programs = List.map (fun f -> or_die (load f)) files in
    let report = Safeopt_opt.Validate.validate_chain ~fuel programs in
    Fmt.pr "%a@." Safeopt_opt.Validate.pp_chain_report report;
    Fmt.pr "chain DRF guarantee: %s@."
      (if Safeopt_opt.Validate.chain_ok report then "HOLDS" else "VIOLATED");
    if not (Safeopt_opt.Validate.chain_ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Validate a chain of transformations (the paper's composition \
             result)")
    Term.(const run $ obs_term $ files_arg $ fuel_arg)

(* --- robust --- *)

let robust_cmd =
  let run () file fuel =
    let p = or_die (load file) in
    let p', promoted = Safeopt_model.Robustness.enforce ~fuel p in
    (match promoted with
    | [] -> Fmt.pr "already data race free; no fences needed@."
    | ls ->
        Fmt.pr "promoted to volatile: %a@."
          Fmt.(list ~sep:(any ", ") string)
          ls;
        Fmt.pr "--- robust program ---@.%a@." Pp.program p');
    Fmt.pr "TSO-robust: %b@." (Safeopt_model.Robustness.is_robust ~fuel p')
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Infer the volatile annotations (fences) that make the program \
             data race free, hence SC on TSO")
    Term.(const run $ obs_term $ file_arg $ fuel_arg)

(* --- report --- *)

let report_cmd =
  let trace_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"A JSONL trace written by $(b,--trace-out) (the default \
                $(b,jsonl) format; $(b,chrome) traces are for Perfetto, \
                not for this command).")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Append the span-tree profile: the top-$(b,--top) hot spans \
                by self time (wall time minus time inside child spans), \
                with deterministic ordering (self time descending, name as \
                tie-break).")
  in
  let flamegraph_arg =
    Arg.(
      value & flag
      & info [ "flamegraph" ]
          ~doc:"Print collapsed stacks only (flamegraph.pl's folded \
                format, one 'root;child;leaf µs' line per distinct stack, \
                weighted by self time): pipe into flamegraph.pl or drop \
                the file on speedscope.app.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"How many hot spans $(b,--profile) shows (default 10).")
  in
  let run file profile flamegraph top =
    let events =
      match Obs.Report.read_file file with
      | Ok evs -> evs
      | Error e -> or_die (Error e)
    in
    if flamegraph then Fmt.pr "%a@?" Obs.Profile.pp_collapsed events
    else begin
      Fmt.pr "%a@." Obs.Report.pp (Obs.Report.aggregate events);
      if profile then Fmt.pr "%a@?" (Obs.Profile.pp_top ~k:top) events
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate a $(b,--trace-out) JSONL trace offline: per-phase \
             wall-time totals with self time, a per-pass table \
             (iterations, rewrite sites, validation verdicts) and final \
             counter values; $(b,--profile) adds the hot-span table and \
             $(b,--flamegraph) emits collapsed stacks for flamegraph.pl \
             or speedscope")
    Term.(const run $ trace_file_arg $ profile_arg $ flamegraph_arg $ top_arg)

(* --- bench --- *)

let bench_cmd =
  let diff_cmd =
    let old_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"OLD" ~doc:"Baseline BENCH_*.json (committed).")
    in
    let new_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"NEW" ~doc:"Fresh BENCH_*.json from this run.")
    in
    let threshold_arg =
      Arg.(
        value & opt float Obs.Bench_diff.default_threshold
        & info [ "threshold" ] ~docv:"FRAC"
            ~doc:"Relative delta in the bad direction that counts as a \
                  regression (default 0.25 = 25%).")
    in
    let min_wall_arg =
      Arg.(
        value & opt float Obs.Bench_diff.default_min_wall
        & info [ "min-wall" ] ~docv:"S"
            ~doc:"Noise floor: experiments whose measured wall is under \
                  $(docv) seconds on both sides are skipped (default \
                  0.05).")
    in
    let run old_path new_path threshold min_wall =
      match
        Obs.Bench_diff.diff_files ~threshold ~min_wall old_path new_path
      with
      | Error e -> or_die (Error e)
      | Ok t ->
          Fmt.pr "%a@?" Obs.Bench_diff.pp t;
          if Obs.Bench_diff.regressed t then exit 1
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare two BENCH_*.json records with noise-aware thresholds: \
               experiments pair by name and compare by rate (units_per_sec, \
               reps-independent, higher is better), skipped when their wall \
               is under $(b,--min-wall) on both sides; claims pair by text \
               and must not flip true→false or go missing.  Nothing else \
               in the records is compared.  Exits non-zero on any \
               regression — the CI perf gate.")
      Term.(const run $ old_arg $ new_arg $ threshold_arg $ min_wall_arg)
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Benchmark utilities (the benchmarks themselves live in \
             bench/main.exe)")
    [ diff_cmd ]

let main =
  Cmd.group
    (Cmd.info "drfopt" ~version:"1.0.0"
       ~doc:"Trace semantics and DRF-safe optimisation toolkit (Sevcik, PLDI \
             2011)")
    [
      run_cmd;
      drf_cmd;
      analyze_cmd;
      transform_cmd;
      optimize_cmd;
      validate_cmd;
      deadlock_cmd;
      denote_cmd;
      eliminable_cmd;
      chain_cmd;
      robust_cmd;
      litmus_cmd;
      matrix_cmd;
      portability_cmd;
      report_cmd;
      bench_cmd;
    ]

let () = exit (Cmd.eval main)
