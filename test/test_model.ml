(* The first-class memory-model interface (lib/model): the SC/TSO/PSO
   inclusion hierarchy and its collapse on DRF programs, checked by
   QCheck over random programs in the calling domain and as a batch on
   two domains, plus the validator
   differential the portability matrix rests on — under a hardware
   model, [Validate.Auto]'s verdict must equal model-exhaustive
   enumeration on every randomly transformed pair. *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_gen
module Model = Safeopt_model.Memory_model

let rand () = Random.State.make [| 0x5afe8; 8 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

let test ?(count = 100) name gen ~print prop =
  to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* --- unit: the model type itself ----------------------------------- *)

let test_of_string () =
  List.iter
    (fun (s, m) ->
      Alcotest.(check bool)
        (Printf.sprintf "of_string %S" s)
        true
        (Model.of_string s = Ok m))
    [
      ("sc", Model.Sc);
      ("tso", Model.Tso);
      ("pso", Model.Pso);
      ("SC", Model.Sc);
      (" Tso ", Model.Tso);
    ];
  Alcotest.(check bool)
    "unknown model rejected" true
    (Result.is_error (Model.of_string "arm"));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("name round-trips for " ^ Model.name m)
        true
        (Model.of_string (Model.name m) = Ok m))
    Model.all

let test_catch_fire () =
  Alcotest.(check bool) "SC catches fire" true (Model.catch_fire Model.Sc);
  Alcotest.(check bool) "TSO does not" false (Model.catch_fire Model.Tso);
  Alcotest.(check bool) "PSO does not" false (Model.catch_fire Model.Pso)

(* The model dispatch must agree with the machines it wraps.  TSO and
   PSO dispatch straight to [Store_buffer]'s machines, so only SC has a
   separate entry point to compare against. *)
let test_dispatch_agrees () =
  List.iter
    (fun (t : Safeopt_litmus.Litmus.t) ->
      let p = Safeopt_litmus.Litmus.program t in
      Alcotest.(check bool)
        (t.Safeopt_litmus.Litmus.name ^ ": Sc = Interp")
        true
        (Behaviour.Set.equal
           (Model.behaviours Model.Sc p)
           (Interp.behaviours p)))
    [
      Safeopt_litmus.Corpus.sb;
      Safeopt_litmus.Corpus.lb;
      Safeopt_litmus.Corpus.mp_volatile;
      Safeopt_litmus.Corpus.atomic_sb_xchg;
    ]

(* The store-buffer machines key thread states like the SC engine: these
   totals grow if a key becomes finer and shrink if it becomes
   coarser. *)
let test_corpus_state_totals () =
  let states m =
    let stats = Explorer.create_stats () in
    List.iter
      (fun t ->
        ignore
          (Model.behaviours ~stats m (Safeopt_litmus.Litmus.program t)))
      Safeopt_litmus.Corpus.all;
    stats.Explorer.states
  in
  Alcotest.(check int) "TSO states over the corpus" 6592 (states Model.Tso);
  Alcotest.(check int) "PSO states over the corpus" 6726 (states Model.Pso)

(* --- unit: the flagship portability asymmetry ----------------------- *)

(* store-load-reorder on the lb shape: accepted under SC (Fig. 11
   R-RW, Theorem 4), rejected under TSO and PSO with the manufactured
   [1; 1] outcome as a replayable witness. *)
let test_store_load_reorder_lb () =
  let p = Safeopt_litmus.Litmus.program Safeopt_litmus.Corpus.lb in
  let p' = Safeopt_opt.Passes.reorder_load_store p in
  Alcotest.(check bool) "the pass fires on lb" false (Ast.equal_program p p');
  let outcome model =
    Safeopt_opt.Validate.run_validator ~model Safeopt_opt.Validate.Auto
      ~original:p ~transformed:p' ()
  in
  Alcotest.(check bool)
    "safe under SC" true
    (Safeopt_opt.Validate.outcome_ok (outcome Model.Sc));
  List.iter
    (fun m ->
      let o = outcome m in
      Alcotest.(check bool)
        ("unsafe under " ^ Model.name m)
        false
        (Safeopt_opt.Validate.outcome_ok o);
      match Safeopt_opt.Validate.outcome_witness ~original:p ~transformed:p' o with
      | Some w -> (
          match w.Safeopt_core.Witness.evidence with
          | Safeopt_core.Witness.New_behaviour b ->
              Alcotest.(check bool)
                ("witness behaviour replays under " ^ Model.name m)
                true
                (Model.replays m p' b && not (Model.replays m p b))
          | _ -> Alcotest.fail "expected a new-behaviour witness")
      | None -> Alcotest.fail "expected a witness")
    [ Model.Tso; Model.Pso ]

(* --- properties: the inclusion hierarchy ---------------------------- *)

let subset a b = Behaviour.Set.subset a b

(* SC <= TSO <= PSO on arbitrary programs: the weak machines only add
   behaviours (an empty-buffer execution is an SC execution, and a
   TSO buffer is a PSO buffer drained in location-merged order). *)
(* The three machines' explorations of a program are independent: at
   jobs 2 they run as one batch on two domains, one job per model, as
   Validate and Portability shard them. *)
let model_behaviours jobs p =
  match Explorer.batch_map ~jobs (fun m -> Model.behaviours m p) Model.all with
  | [ sc; tso; pso ] -> (sc, tso, pso)
  | _ -> assert false

let inclusion_prop jobs p =
  let sc, tso, pso = model_behaviours jobs p in
  subset sc tso && subset tso pso

let inclusion_j1 =
  test ~count:200 "SC <= TSO <= PSO (jobs 1)" Generators.program
    ~print:Generators.print_program (inclusion_prop 1)

let inclusion_j2 =
  test ~count:100 "SC <= TSO <= PSO (jobs 2)" Generators.program
    ~print:Generators.print_program (inclusion_prop 2)

(* On DRF programs the hierarchy collapses — the DRF guarantee: every
   buffered execution is observationally equivalent to an SC one. *)
let drf_equality_prop jobs p =
  let sc, tso, pso = model_behaviours jobs p in
  Behaviour.Set.equal sc tso && Behaviour.Set.equal sc pso

let drf_equality_j1 =
  test ~count:200 "DRF collapses the hierarchy (jobs 1)"
    Generators.drf_program ~print:Generators.print_program
    (drf_equality_prop 1)

let drf_equality_j2 =
  test ~count:100 "DRF collapses the hierarchy (jobs 2)"
    Generators.drf_program ~print:Generators.print_program
    (drf_equality_prop 2)

(* --- properties: the validator differential ------------------------- *)

(* A random safe pass applied to a random program, judged under a
   hardware model: [Auto] must return exactly [Exhaustive]'s verdict —
   the ladder's weak-model escalation rules (refine only via the
   static-DRF certificate, else model-exhaustive) may never change the
   answer. *)
let transformed_pair =
  QCheck2.Gen.map2
    (fun p name ->
      let pass = Option.get (Safeopt_opt.Pipeline.find name) in
      (p, (pass.Safeopt_opt.Pass.run p).Safeopt_opt.Pass.program))
    Generators.program
    (QCheck2.Gen.oneofl Safeopt_opt.Pipeline.safe_names)

let print_pair (p, p') =
  Generators.print_program p ^ "\n--- transformed ---\n"
  ^ Generators.print_program p'

let ladder_agreement_prop model (p, p') =
  let run v =
    Safeopt_opt.Validate.outcome_ok
      (Safeopt_opt.Validate.run_validator ~model v ~original:p ~transformed:p'
         ())
  in
  run Safeopt_opt.Validate.Auto = run Safeopt_opt.Validate.Exhaustive

let ladder_agreement_tso =
  test ~count:150 "Auto = Exhaustive under TSO" transformed_pair
    ~print:print_pair
    (ladder_agreement_prop Model.Tso)

let ladder_agreement_pso =
  test ~count:150 "Auto = Exhaustive under PSO" transformed_pair
    ~print:print_pair
    (ladder_agreement_prop Model.Pso)

let () =
  Alcotest.run "model"
    [
      ( "interface",
        [
          Alcotest.test_case "of_string / name" `Quick test_of_string;
          Alcotest.test_case "racy-behaviour semantics" `Quick test_catch_fire;
          Alcotest.test_case "dispatch agrees with the machines" `Quick
            test_dispatch_agrees;
          Alcotest.test_case "store-load-reorder on lb" `Quick
            test_store_load_reorder_lb;
          Alcotest.test_case "state totals on corpus" `Quick
            test_corpus_state_totals;
        ] );
      ( "inclusion",
        [ inclusion_j1; inclusion_j2; drf_equality_j1; drf_equality_j2 ] );
      ( "validator", [ ladder_agreement_tso; ladder_agreement_pso ] );
    ]
