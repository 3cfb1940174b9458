(* Domain-parallel exploration: every parallel entry point must produce
   results identical to its sequential counterpart (the Par determinism
   contract), and the pool/queue primitives themselves must behave. *)

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

exception Boom

let test_pool_exception () =
  check_b "a worker exception reaches the caller" true
    (try
       ignore
         (Par.Pool.map_list pool
            (fun _ x -> if x = 37 then raise Boom else x)
            (List.init 64 Fun.id));
       false
     with Boom -> true);
  check_i "the pool survives and runs the next job" 10
    (List.length (Par.Pool.map_list pool (fun _ x -> x) (List.init 10 Fun.id)))

(* --- Chase–Lev deque --------------------------------------------------- *)

let test_deque_orders () =
  let d = Par.Deque.create () in
  check_b "a fresh deque is empty" true (Par.Deque.pop d = None);
  check_b "a fresh deque yields no steals" true (Par.Deque.steal d = None);
  List.iter (Par.Deque.push d) [ 0; 1; 2; 3; 4 ];
  check_i "owner sees the deque size" 5 (Par.Deque.size d);
  check_b "owner pops newest first (LIFO)" true (Par.Deque.pop d = Some 4);
  check_b "thief steals oldest first (FIFO)" true (Par.Deque.steal d = Some 0);
  check_b "steal order advances" true (Par.Deque.steal d = Some 1);
  check_b "owner keeps popping from the bottom" true
    (Par.Deque.pop d = Some 3);
  check_b "last element goes to exactly one side" true
    (Par.Deque.pop d = Some 2);
  check_b "deque is empty again" true
    (Par.Deque.pop d = None && Par.Deque.steal d = None);
  (* growth across the initial buffer size preserves both orders *)
  let n = 1000 in
  for i = 0 to n - 1 do
    Par.Deque.push d i
  done;
  check_b "after growth, steals walk 0,1,2.." true
    (List.init 10 (fun _ -> Par.Deque.steal d)
    = List.init 10 (fun i -> Some i));
  check_b "after growth, pops walk n-1,n-2.." true
    (List.init 10 (fun _ -> Par.Deque.pop d)
    = List.init 10 (fun i -> Some (n - 1 - i)))

let test_deque_steal_half () =
  let victim = Par.Deque.create () in
  let mine = Par.Deque.create () in
  List.iter (Par.Deque.push victim) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  (match Par.Deque.steal_half victim ~into:mine with
  | Some (first, taken) ->
      check_i "the oldest element is returned for processing" 0 first;
      check_i "half of the victim's items are claimed" 4 taken;
      check_i "surplus lands in the thief's deque" 3 (Par.Deque.size mine)
  | None -> Alcotest.fail "steal_half found nothing in a full deque");
  check_i "the victim keeps the other half" 4 (Par.Deque.size victim);
  check_b "thief's copies arrived in steal order" true
    (Par.Deque.steal mine = Some 1);
  check_b "stealing an empty victim reports None" true
    (Par.Deque.steal_half (Par.Deque.create ()) ~into:mine = None)

(* Two thief domains against a pushing-and-popping owner: every pushed
   element must come out exactly once, across all three parties. *)
let test_deque_stress () =
  let d = Par.Deque.create () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let thief () =
    let acc = ref [] in
    let rec drain () =
      match Par.Deque.steal d with
      | Some x ->
          acc := x :: !acc;
          drain ()
      | None -> ()
    in
    while not (Atomic.get stop) do
      (match Par.Deque.steal d with
      | Some x -> acc := x :: !acc
      | None -> Domain.cpu_relax ());
      ()
    done;
    drain ();
    !acc
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  let mine = ref [] in
  for i = 0 to n - 1 do
    Par.Deque.push d i;
    if i mod 3 = 0 then
      match Par.Deque.pop d with
      | Some x -> mine := x :: !mine
      | None -> ()
  done;
  let rec drain () =
    match Par.Deque.pop d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen1 = Domain.join t1 in
  let stolen2 = Domain.join t2 in
  let all = List.sort compare (!mine @ stolen1 @ stolen2) in
  check_i "every pushed element came out exactly once" n (List.length all);
  check_b "no element was lost or duplicated" true
    (List.for_all2 ( = ) all (List.init n Fun.id))

(* --- exploration determinism ----------------------------------------- *)

let test_corpus_determinism () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let seq = Interp.behaviours p in
      let par1 = Interp.behaviours ~pool p in
      let par2 = Interp.behaviours ~pool p in
      if not (Behaviour.Set.equal seq par1) then
        Alcotest.failf "%s: parallel behaviours differ from sequential"
          t.Litmus.name;
      if not (Behaviour.Set.equal par1 par2) then
        Alcotest.failf "%s: two parallel runs disagree" t.Litmus.name;
      if Interp.is_drf p <> Interp.is_drf ~pool p then
        Alcotest.failf "%s: parallel DRF verdict differs" t.Litmus.name;
      if Interp.count_states p <> Interp.count_states ~pool p then
        Alcotest.failf "%s: parallel state count differs" t.Litmus.name)
    Corpus.all

(* A one-shot ?jobs call (no pre-built pool) takes the pool-per-call
   path; jobs = 1 must stay on the sequential one. *)
let test_jobs_entry () =
  let p = Litmus.program Corpus.sb in
  Alcotest.check behaviour_set "jobs:2 equals sequential"
    (Interp.behaviours p)
    (Interp.behaviours ~jobs:2 p);
  Alcotest.check behaviour_set "jobs:1 equals sequential"
    (Interp.behaviours p)
    (Interp.behaviours ~jobs:1 p)

let rand () = Random.State.make [| 0x9a7a11e1; 7 |]

let qcheck_parallel_equiv =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:"parallel behaviours equal sequential (300 random programs)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         Behaviour.Set.equal (Interp.behaviours p) (Interp.behaviours ~pool p)))

(* The headline parity property of the work-stealing engine: behaviour
   sets, state counts and the [edges] and [por_cuts] work counters are
   identical across jobs ∈ {1, 2, 4}, with and without the reduction
   (persistent-set selection is a pure function of the state, and each
   state is expanded once, whichever worker reaches it).  The generated
   programs include Atomic/RMW threads (see Generators.simple_stmt). *)
let qcheck_jobs_parity =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make
       ~name:
         "count_states and behaviours identical across jobs {1,2,4} (300 \
          random programs, POR on and off)"
       ~count:300 ~print:Generators.print_program Generators.program (fun p ->
         let run sys pool =
           let s = Explorer.create_stats () in
           let b = Explorer.behaviours ~stats:s ?pool sys in
           ( b,
             Explorer.count_states ?pool sys,
             s.Explorer.edges,
             s.Explorer.por_cuts )
         in
         let parity sys =
           let b1, c1, e1, k1 = run sys None in
           List.for_all
             (fun pl ->
               let b, c, e, k = run sys (Some pl) in
               Behaviour.Set.equal b1 b && c1 = c && e1 = e && k1 = k)
             [ pool2; pool ]
         in
         parity (full p) && parity (Thread_system.make p)))

(* Acceptance criterion: POR-reduced state counts match exactly across
   jobs 1/2/4 on the full litmus corpus. *)
let test_corpus_por_parity () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      let c1 = Interp.count_states p in
      let c2 = Interp.count_states ~pool:pool2 p in
      let c4 = Interp.count_states ~pool p in
      if not (c1 = c2 && c2 = c4) then
        Alcotest.failf
          "%s: reduced state counts differ across jobs (1:%d 2:%d 4:%d)"
          t.Litmus.name c1 c2 c4)
    Corpus.all

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

let test_graph_parallel () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      if
        not
          (Behaviour.Set.equal
             (Model.behaviours Model.Tso p)
             (Model.behaviours ~pool Model.Tso p))
      then Alcotest.failf "%s: parallel TSO behaviours differ" t.Litmus.name)
    (List.filteri (fun i _ -> i < 8) Corpus.all);
  let sb = Litmus.program Corpus.sb in
  Alcotest.check behaviour_set "parallel PSO behaviours equal sequential"
    (Model.behaviours Model.Pso sb)
    (Model.behaviours ~pool Model.Pso sb)

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

let race_witness_ok ?pool p =
  match Interp.find_race ?pool p with
  | Some i -> valid_race p i
  | None -> true

let deadlock_witness_ok p =
  match Explorer.find_deadlock (Thread_system.make p) with
  | Some i -> valid_deadlock p i
  | None -> true

(* DRF and TSO/PSO verdicts depend on the graph, not the schedule. *)
let verdict_parity p =
  let verdicts pool =
    ( Option.is_some (Interp.find_race ?pool p),
      Behaviour.Set.elements (Model.behaviours ?pool Model.Tso p),
      Behaviour.Set.elements (Model.behaviours ?pool Model.Pso p) )
  in
  let one = verdicts None in
  List.for_all (fun pl -> verdicts (Some pl) = one) [ pool2; pool ]

let test_corpus_witnesses () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = Litmus.program t in
      if not t.Litmus.drf then
        List.iter
          (fun (jobs, pool) ->
            match Interp.find_race ?pool p with
            | Some i when valid_race p i -> ()
            | Some i ->
                Alcotest.failf "%s: invalid race witness at jobs %d: %a"
                  t.Litmus.name jobs Interleaving.pp i
            | None ->
                Alcotest.failf "%s: no race found at jobs %d" t.Litmus.name
                  jobs)
          [ (1, None); (2, Some pool2) ];
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
         race_witness_ok p
         && race_witness_ok ~pool:pool2 p
         && deadlock_witness_ok p && verdict_parity p))

(* --- batch validation and the pipeline -------------------------------- *)

let test_validate_batch () =
  let open Safeopt_opt in
  let spec =
    Result.get_ok
      (Pipeline.parse "constprop;copyprop;redundancy;dead-moves;normalise")
  in
  let pairs =
    List.filter_map
      (fun t ->
        let p = Litmus.program t in
        let q = (Pipeline.run spec p).Pipeline.final in
        if Ast.equal_program p q then None else Some (p, q))
      Corpus.all
  in
  check_b "corpus yields some non-trivial pairs" true (List.length pairs >= 3);
  let seq =
    List.map
      (fun (original, transformed) -> Validate.validate ~original ~transformed ())
      pairs
  in
  let par = Validate.validate_batch ~pool pairs in
  check_b "batch reports identical to sequential" true (seq = par)

let pipeline_spec s =
  match Safeopt_opt.Pipeline.parse s with
  | Ok spec -> spec
  | Error e -> failwith e

(* The refine rung never uses the pool, so the pipeline tests pin the
   exhaustive validator: every validation then runs the explorer on it. *)
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

(* The speculative parallel pipeline must cut at the same failing pass
   as the incremental sequential one, discarding speculated suffixes. *)
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
      ( "deque",
        [
          Alcotest.test_case "owner LIFO / thief FIFO" `Quick
            test_deque_orders;
          Alcotest.test_case "steal half" `Quick test_deque_steal_half;
          Alcotest.test_case "concurrent steal stress" `Slow
            test_deque_stress;
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
          Alcotest.test_case "validate_batch" `Slow test_validate_batch;
          Alcotest.test_case "pipeline" `Slow test_pipeline_parallel;
          Alcotest.test_case "pipeline rejection" `Quick
            test_pipeline_reject_parallel;
        ] );
    ]
