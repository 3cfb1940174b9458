(* The exploration that answers both SC questions at once
   ([behaviours_and_drf]) and the race witness search
   ([find_adjacent_race]) against the naive reference enumerator
   ([Reference]), and the full searches too: behaviour sets and DRF
   verdicts are equal, and every witness is an execution whose only
   adjacent race is its last two actions.  The
   cases are generated programs (before and after a random registry
   pass), the litmus corpus, and generated explicit tracesets, whose
   threads decline read values and offer several steps at once. *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_gen
open Safeopt_litmus
module Pass = Safeopt_opt.Pass
module Pipeline = Safeopt_opt.Pipeline

(* The first answer that differs from the reference, if any.  [sys] is
   the system as built (reduced for programs), [full] the same system
   with no local action, and [execution i] says whether [i] is an
   execution of it. *)
let first_disagreement ~vol ~full ~execution sys =
  let bs, states = Reference.behaviours sys in
  let bs = Behaviour.Set.of_list bs in
  let drf = Reference.is_drf vol sys in
  let witness what found =
    [
      (what ^ " DRF verdict", Option.is_none found = drf);
      ( what ^ " witness",
        match found with
        | None -> true
        | Some i ->
            let n = Interleaving.length i in
            execution i && Race.adjacent_race vol i = Some (n - 2, n - 1) );
    ]
  in
  let s = Explorer.create_stats () in
  let bs_full = Explorer.behaviours ~stats:s full in
  let bs', drf' = Explorer.behaviours_and_drf vol sys in
  let checks =
    [
      ("unreduced behaviours", Behaviour.Set.equal bs bs_full);
      ("unreduced state count", states = s.Explorer.states);
    ]
    @ witness "unreduced" (Explorer.find_adjacent_race vol full)
    @ [
        ("shared behaviours", Behaviour.Set.equal bs bs');
        ("shared DRF verdict", drf = drf');
      ]
    @ witness "race search" (Explorer.find_adjacent_race vol sys)
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

let program_disagreement p =
  let sys = Safeopt_lang.Thread_system.make p in
  first_disagreement ~vol:p.Safeopt_lang.Ast.volatile ~full:(Helpers.full p)
    ~execution:(fun i -> Reference.replay sys i <> [])
    sys

let traceset_disagreement (ts, vol) =
  let sys = Traceset_system.make ts in
  first_disagreement ~vol ~full:sys
    ~execution:(Interleaving.is_execution_of ts)
    sys

let rand () = Random.State.make [| 0x5afe2; 21 |]

let property ~name ~count ~print gen disagreement =
  QCheck_alcotest.to_alcotest ~rand:(rand ())
    (QCheck2.Test.make ~name ~count ~print gen (fun case ->
         match disagreement case with
         | None -> true
         | Some what -> QCheck2.Test.fail_reportf "%s differs" what))

let programs_agree =
  property ~name:"programs and their registry rewrites (3000 draws)"
    ~count:3000
    ~print:(fun (p, (pass : Pass.t)) ->
      Fmt.str "pass %s on@.%s" pass.Pass.name (Generators.print_program p))
    QCheck2.Gen.(pair Generators.program (oneofl Pipeline.registry))
    (fun (p, pass) ->
      match program_disagreement p with
      | Some what -> Some ("original: " ^ what)
      | None ->
          Option.map
            (fun what -> "rewritten: " ^ what)
            (program_disagreement (pass.Pass.run p).Pass.program))

(* Two or three threads, each the prefix closure of up to three
   generated traces. *)
let traceset_case =
  let open QCheck2.Gen in
  let* n = int_range 2 3 in
  let* threads = list_repeat n (list_size (int_range 1 3) Generators.trace) in
  let* volatile = bool in
  let traces =
    List.concat
      (List.mapi
         (fun tid ts -> List.map (fun t -> Action.Start tid :: List.tl t) ts)
         threads)
  in
  return
    ( Traceset.of_list traces,
      if volatile then Helpers.vol_v else Location.Volatile.none )

let tracesets_agree =
  property ~name:"explicit tracesets (1000 draws)" ~count:1000
    ~print:(fun (ts, _) -> Fmt.str "%a" Traceset.pp ts)
    traceset_case traceset_disagreement

let test_corpus () =
  List.iter
    (fun (t : Litmus.t) ->
      Option.iter
        (fun what -> Alcotest.failf "%s: %s differs" t.Litmus.name what)
        (program_disagreement (Litmus.program t)))
    Corpus.all

let () =
  Alcotest.run "reference"
    [
      ( "agreement",
        [
          Alcotest.test_case "litmus corpus" `Slow test_corpus;
          programs_agree;
          tracesets_agree;
        ] );
    ]
