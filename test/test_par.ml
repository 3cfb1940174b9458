(* Batch parallelism: independent explorations sharded across a pool
   must give exactly what they give one after another in the calling
   domain, and the pool primitives themselves must behave.  Every
   exploration runs in one domain, so its results — witnesses
   included — do not depend on the domain it runs in or on the pool
   size. *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Safeopt_gen
open Helpers
module Model = Safeopt_model.Memory_model

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* One pool for the whole binary: spawning domains per test case would
   dominate the runtime.  Size 4 also oversubscribes small CI hosts,
   which is exactly the scheduling noise the determinism tests should
   survive. *)
let pool = Par.Pool.create 4

(* A second, smaller pool so parity properties cover jobs ∈ {1, 2, 4}. *)
let pool2 = Par.Pool.create 2
let pools = [ (2, pool2); (4, pool) ]

(* --- primitives ------------------------------------------------------- *)

let test_resolve_jobs () =
  check_i "0 resolves to the recommended domain count"
    (Domain.recommended_domain_count ())
    (Par.resolve_jobs 0);
  check_i "positive job counts pass through" 3 (Par.resolve_jobs 3);
  Alcotest.check_raises "negative job counts are rejected"
    (Invalid_argument "Par.resolve_jobs: negative job count") (fun () ->
      ignore (Par.resolve_jobs (-1)))

let test_pool_map_list () =
  let xs = List.init 100 Fun.id in
  let ys = Par.Pool.map_list pool (fun i x -> (i, x * x)) xs in
  check_b "results in input order with their indices" true
    (List.for_all2 (fun x (i, y) -> i = x && y = x * x) xs ys)

(* An exploration over budget in a batch job surfaces in the caller,
   and the pool runs the next batch. *)
let test_pool_exception () =
  let programs = List.map Litmus.program Corpus.all in
  check_b "a batch job's exception reaches the caller" true
    (match
       Explorer.batch_map ~pool (Interp.count_states ~max_states:8) programs
     with
    | _ -> false
    | exception Explorer.Too_many_states _ -> true);
  check_b "the pool survives and runs the next batch" true
    (Explorer.batch_map ~pool Interp.count_states programs
    = List.map Interp.count_states programs)

(* --- batch determinism ------------------------------------------------ *)

let answers outcomes =
  List.map
    (fun (o : Litmus.outcome) ->
      ( o.Litmus.test.Litmus.name,
        o.Litmus.drf_actual,
        Behaviour.Set.elements o.Litmus.behaviours,
        o.Litmus.failures ))
    outcomes

let same_answers what expected got =
  List.iter2
    (fun ((name, _, _, _) as e) g ->
      if e <> g then Alcotest.failf "%s: %s differs" name what)
    expected got

let test_corpus_determinism () =
  let seq = answers (List.map Litmus.check Corpus.all) in
  let par1 = answers (Litmus.check_all ~pool Corpus.all) in
  let par2 = answers (Litmus.check_all ~pool Corpus.all) in
  same_answers "the batch outcome" seq par1;
  same_answers "a second batch run" par1 par2

(* A one-shot ?jobs call (no pre-built pool) takes the pool-per-call
   path; jobs = 1 must stay on the sequential one. *)
let test_jobs_entry () =
  let tests = Corpus.[ sb; mp; iriw ] in
  let seq = answers (List.map Litmus.check tests) in
  same_answers "jobs:2" seq (answers (Litmus.check_all ~jobs:2 tests));
  same_answers "jobs:1" seq (answers (Litmus.check_all ~jobs:1 tests))

let rand () = Random.State.make [| 0x9a7a11e1; 7 |]

(* A program's behaviours under the three models, one batch job per
   model, as Validate and Portability shard them. *)
let model_behaviours ?pool p =
  Explorer.batch_map ?pool
    (fun m -> Behaviour.Set.elements (Model.behaviours m p))
    Model.all

let qcheck_parallel_equiv =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:"parallel behaviours equal sequential (300 random programs)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         model_behaviours p = model_behaviours ~pool p))

(* Batch jobs share the caller's stats record: every exploration merges
   into it once, under a lock, so the merged work counters are exact.
   Four jobs per program — state count and behaviours, with and without
   the reduction — give the same answers and the same counters at jobs
   1, 2 and 4.  Each job builds its own system: a system is explored by
   one domain at a time.  The generated programs include Atomic/RMW
   threads (see Generators.simple_stmt). *)
let qcheck_jobs_parity =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:
         "count_states and behaviours identical across jobs {1,2,4} (300 \
          random programs, POR on and off)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         let run pool =
           let s = Explorer.create_stats () in
           let results =
             Explorer.batch_map ~stats:s ?pool
               (fun (reduced, count) ->
                 let sys = if reduced then Thread_system.make p else full p in
                 if count then (Explorer.count_states ~stats:s sys, [])
                 else
                   ( 0,
                     Behaviour.Set.elements (Explorer.behaviours ~stats:s sys)
                   ))
               [ (true, true); (true, false); (false, true); (false, false) ]
           in
           ( results,
             s.Explorer.states,
             s.Explorer.edges,
             s.Explorer.por_cuts,
             s.Explorer.memo_hits )
         in
         let one = run None in
         List.for_all (fun (_, pl) -> run (Some pl) = one) pools))

(* Reduced state counts of the full litmus corpus, one batch job per
   program, match exactly at jobs 1, 2 and 4. *)
let test_corpus_por_parity () =
  let programs = List.map Litmus.program Corpus.all in
  let c1 = Explorer.batch_map Interp.count_states programs in
  List.iter
    (fun (jobs, pl) ->
      let c = Explorer.batch_map ~pool:pl Interp.count_states programs in
      List.iter2
        (fun (t : Litmus.t) (a, b) ->
          if a <> b then
            Alcotest.failf "%s: reduced state count %d at jobs 1, %d at jobs %d"
              t.Litmus.name a b jobs)
        Corpus.all (List.combine c1 c))
    pools

(* --- stats aggregation ------------------------------------------------ *)

let test_stats_aggregation () =
  let seq = Explorer.create_stats () in
  ignore (Litmus.check_all ~stats:seq Corpus.all);
  let par = Explorer.create_stats () in
  ignore (Litmus.check_all ~stats:par ~pool Corpus.all);
  check_i "aggregated states equal sequential" seq.Explorer.states
    par.Explorer.states;
  check_i "aggregated transitions equal sequential" seq.Explorer.edges
    par.Explorer.edges;
  check_i "aggregated memo hits equal sequential" seq.Explorer.memo_hits
    par.Explorer.memo_hits;
  check_b "parallel stats record the domain count" true
    (par.Explorer.domains >= 2);
  check_i "sequential stats record no domains" 0 seq.Explorer.domains

(* --- graph engine (TSO/PSO) ------------------------------------------ *)

(* The store-buffer machines in worker domains, one program per job. *)
let test_graph_parallel () =
  let tests = List.filteri (fun i _ -> i < 8) Corpus.all in
  let programs = List.map Litmus.program tests in
  List.iter
    (fun m ->
      let beh p = Behaviour.Set.elements (Model.behaviours m p) in
      List.iter2
        (fun (t : Litmus.t) (a, b) ->
          if a <> b then
            Alcotest.failf "%s: batch %s behaviours differ" t.Litmus.name
              (Model.name m))
        tests
        (List.combine (List.map beh programs)
           (Explorer.batch_map ~pool beh programs)))
    [ Model.Tso; Model.Pso ]

(* --- witnesses ----------------------------------------------------------- *)

(* A race witness is an execution of the program, replayed through the
   reference enumerator's scheduler, whose first adjacent conflicting
   pair is its last two actions. *)
let valid_race p i =
  let n = Interleaving.length i in
  Race.adjacent_race p.Ast.volatile i = Some (n - 2, n - 1)
  && Reference.replay (Thread_system.make p) i <> []

(* A deadlock witness is an execution ending where no step is enabled
   while some thread still offers one. *)
let valid_deadlock p i =
  let sys = Thread_system.make p in
  List.exists
    (fun st ->
      Reference.transitions sys st = []
      && List.exists (fun ts -> sys.System.steps ts <> []) st.Reference.threads)
    (Reference.replay sys i)

let deadlock_witness_ok p =
  match Explorer.find_deadlock (Thread_system.make p) with
  | Some i -> valid_deadlock p i
  | None -> true

(* One program's race witness and TSO/PSO behaviours, one batch job
   each. *)
let verdicts ?pool p =
  Explorer.batch_map ?pool
    (function
      | Model.Sc -> (Interp.find_race p, [])
      | m -> (None, Behaviour.Set.elements (Model.behaviours m p)))
    Model.all

(* The witness search runs in one domain, so a batch job finds the very
   witness the calling domain finds, at every pool size. *)
let verdict_parity p =
  let one = verdicts p in
  List.for_all (fun (_, pl) -> verdicts ~pool:pl p = one) pools

let test_corpus_witnesses () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      if not t.Litmus.drf then begin
        match Interp.find_race p with
        | Some i when valid_race p i -> ()
        | Some i ->
            Alcotest.failf "%s: invalid race witness: %a" t.Litmus.name
              Interleaving.pp i
        | None -> Alcotest.failf "%s: no race found" t.Litmus.name
      end;
      if not (deadlock_witness_ok p && verdict_parity p) then
        Alcotest.failf "%s: witness or verdict check failed" t.Litmus.name)
    Corpus.all

let test_deadlock_witness () =
  List.iter
    (fun src ->
      let p = parse src in
      match Explorer.find_deadlock (Thread_system.make p) with
      | Some i ->
          check_b "deadlock witness ends blocked" true (valid_deadlock p i)
      | None -> Alcotest.failf "must deadlock:\n%s" src)
    [
      "thread { lock m; lock n; unlock n; unlock m; }\n\
       thread { lock n; lock m; unlock m; unlock n; }";
      "thread { lock a; x := 1; lock b; unlock b; unlock a; }\n\
       thread { lock b; r1 := x; lock c; unlock c; unlock b; }\n\
       thread { lock c; lock a; unlock a; unlock c; print r2; }";
    ]

let qcheck_witnesses =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:
         "race witnesses replay at jobs {1,2}, deadlock witnesses end \
          blocked; DRF and TSO/PSO verdicts equal at jobs {1,2,4} (300 \
          random programs)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         (match Interp.find_race p with
         | Some i ->
             valid_race p i
             && Explorer.batch_map ~pool:pool2 Interp.find_race [ p; p ]
                = [ Some i; Some i ]
         | None -> true)
         && deadlock_witness_ok p && verdict_parity p))

(* --- batch validation and the pipeline -------------------------------- *)

(* [run_validator] shards the two programs' explorations across the
   pool.  On every registry rewrite of the corpus, under each model and
   both deciding validators, a 2-domain pool gives the outcome and the
   report it gives without one. *)
let test_run_validator_sharding () =
  let open Safeopt_opt in
  let pairs =
    List.concat_map
      (fun t ->
        let p = Litmus.program t in
        List.filter_map
          (fun (pass : Pass.t) ->
            let q = (pass.Pass.run p).Pass.program in
            if Ast.equal_program p q then None
            else Some (t.Litmus.name ^ " / " ^ pass.Pass.name, p, q))
          Pipeline.registry)
      Corpus.all
  in
  check_b "the registry rewrites some corpus programs" true (pairs <> []);
  List.iter
    (fun (name, original, transformed) ->
      List.iter
        (fun (model, validator) ->
          let run ?pool () =
            let o =
              Validate.run_validator ?pool ~model validator ~original
                ~transformed ()
            in
            (Fmt.str "%a" Validate.pp_outcome o, o.Validate.out_report)
          in
          if run () <> run ~pool:pool2 () then
            Alcotest.failf "%s under %s (%a): sharded outcome differs" name
              (Model.name model) Validate.pp_validator validator)
        (List.concat_map
           (fun m -> [ (m, Validate.Auto); (m, Validate.Exhaustive) ])
           Model.all))
    pairs

let pipeline_spec s =
  match Safeopt_opt.Pipeline.parse s with
  | Ok spec -> spec
  | Error e -> failwith e

(* A pipeline run resolves one pool and hands it to every validation,
   which shards its two programs' explorations across it.  The refine
   rung never uses the pool, so the pipeline tests pin the exhaustive
   validator: every validation then runs the explorer on it. *)
let validator = Safeopt_opt.Validate.Exhaustive

let test_pipeline_parallel () =
  let open Safeopt_opt in
  let spec = pipeline_spec "constprop;copyprop;cse*;dead-moves;dse;normalise" in
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let seq = Pipeline.run ~validate_each:true ~validator spec p in
      let par = Pipeline.run ~validate_each:true ~validator ~pool spec p in
      if not (Ast.equal_program seq.Pipeline.final par.Pipeline.final) then
        Alcotest.failf "%s: parallel pipeline result differs" t.Litmus.name;
      if
        Option.map fst seq.Pipeline.failure
        <> Option.map fst par.Pipeline.failure
      then Alcotest.failf "%s: parallel pipeline verdict differs" t.Litmus.name)
    Corpus.all

(* With a pool, the pipeline still validates each step before it runs
   the next, so it stops at the same failing pass and keeps the same
   last accepted program. *)
let test_pipeline_reject_parallel () =
  let open Safeopt_opt in
  let spec = pipeline_spec "unsafe-store-release;normalise" in
  let p =
    parse
      "thread { lock m; r1 := c; c := r1; unlock m; }\n\
       thread { lock m; r2 := c; c := r2; unlock m; }"
  in
  let seq = Pipeline.run ~validate_each:true ~validator spec p in
  let par = Pipeline.run ~validate_each:true ~validator ~pool spec p in
  check_b "sequential run rejects" true (Option.is_some seq.Pipeline.failure);
  check_b "parallel run rejects at the same pass" true
    (Option.map fst seq.Pipeline.failure = Option.map fst par.Pipeline.failure);
  Alcotest.check program "both keep the last accepted program"
    seq.Pipeline.final par.Pipeline.final

let () =
  Alcotest.run "par"
    [
      ( "primitives",
        [
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "pool map_list" `Quick test_pool_map_list;
          Alcotest.test_case "pool exceptions" `Quick test_pool_exception;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus" `Slow test_corpus_determinism;
          Alcotest.test_case "jobs entry points" `Quick test_jobs_entry;
          qcheck_parallel_equiv;
          qcheck_jobs_parity;
          Alcotest.test_case "corpus POR count parity" `Slow
            test_corpus_por_parity;
        ] );
      ( "aggregation",
        [ Alcotest.test_case "stats merge" `Slow test_stats_aggregation ] );
      ( "graph engine",
        [ Alcotest.test_case "tso/pso" `Slow test_graph_parallel ] );
      ( "witnesses",
        [
          Alcotest.test_case "corpus" `Slow test_corpus_witnesses;
          Alcotest.test_case "deadlock" `Quick test_deadlock_witness;
          qcheck_witnesses;
        ] );
      ( "batch",
        [
          Alcotest.test_case "run_validator sharding" `Slow
            test_run_validator_sharding;
          Alcotest.test_case "pipeline" `Slow test_pipeline_parallel;
          Alcotest.test_case "pipeline rejection" `Quick
            test_pipeline_reject_parallel;
        ] );
    ]
