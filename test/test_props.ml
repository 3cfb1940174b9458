(* Property-based tests (QCheck) over randomly generated traces and
   programs.  Seeded for reproducibility. *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang
open Safeopt_gen
module Model = Safeopt_model.Memory_model

let rand () = Random.State.make [| 0x5afe0; 42 |]

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

let test ?(count = 100) name gen ~print prop =
  to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* --- traces ----------------------------------------------------------- *)

let trace_wf =
  test "generated traces are well-formed" Generators.trace
    ~print:Generators.print_trace (fun t ->
      Trace.properly_started t && Trace.well_locked t)

let trace_prefixes =
  test "prefixes are prefixes and well-formed" Generators.trace
    ~print:Generators.print_trace (fun t ->
      List.for_all
        (fun p -> Trace.is_prefix p t && Trace.well_locked p)
        (Trace.prefixes t))

let restrict_partition =
  test "restrict/complement partition dom" Generators.trace
    ~print:Generators.print_trace (fun t ->
      let keep = List.filteri (fun i _ -> i mod 2 = 0) (Trace.dom t) in
      let dropped = Trace.complement t keep in
      Trace.length (Trace.restrict t keep)
      + Trace.length (Trace.restrict t dropped)
      = Trace.length t)

let wildcard_instances =
  test "instances match their wildcard" Generators.wildcard_trace
    ~print:Wildcard.to_string (fun w ->
      Seq.for_all
        (fun t -> Wildcard.is_instance w t)
        (Wildcard.instances ~universe:[ 0; 1 ] w))

let depermute_identity =
  test "identity de-permutation" Generators.trace
    ~print:Generators.print_trace (fun t ->
      Trace.equal t
        (Safeopt_core.Reorder.depermute
           (Safeopt_core.Reorder.identity (Trace.length t))
           t))

let trace_syntax_roundtrip =
  test "trace notation round-trips" Generators.wildcard_trace
    ~print:Wildcard.to_string (fun w ->
      Wildcard.equal w (Syntax.parse_wildcard (Wildcard.to_string w)))

let eliminable_proper_subset =
  test "properly eliminable implies eliminable" Generators.wildcard_trace
    ~print:Wildcard.to_string (fun w ->
      List.for_all
        (fun i -> Safeopt_core.Eliminable.eliminable Helpers.none w i)
        (Safeopt_core.Eliminable.properly_eliminable_indices Helpers.none w))

let reorder_find_complete =
  (* the insertion search agrees with brute force over all permutations
     on short traces *)
  test ~count:60 "Reorder.find is complete on short traces" Generators.trace
    ~print:Generators.print_trace (fun t ->
      if Trace.length t > 4 then QCheck2.assume_fail ()
      else
        let n = Trace.length t in
        (* membership oracle: prefix closure of the reversed trace, an
           arbitrary but reordering-friendly target *)
        let target = Traceset.of_list [ List.rev t ] in
        let mem u = Traceset.mem u target in
        let rec perms = function
          | [] -> [ [] ]
          | l ->
              List.concat_map
                (fun x ->
                  List.map
                    (fun p -> x :: p)
                    (perms (List.filter (fun y -> y <> x) l)))
                l
        in
        let brute =
          List.exists
            (fun order ->
              let f = Array.make n 0 in
              List.iteri (fun pos k -> f.(k) <- pos) order;
              Safeopt_core.Reorder.de_permutes Helpers.none f t ~mem)
            (perms (List.init n Fun.id))
        in
        let search = Safeopt_core.Reorder.find Helpers.none t ~mem <> None in
        brute = search)

(* --- programs --------------------------------------------------------- *)

let print_program = Generators.print_program

let parser_roundtrip =
  test "parse . pp = id" Generators.program ~print:print_program (fun p ->
      Ast.equal_program p (Parser.parse_program (Pp.program_to_string p)))

let race_definitions_agree =
  test ~count:60 "adjacent-race iff hb-race over all executions"
    Generators.program ~print:print_program (fun p ->
      let vol = p.Ast.volatile in
      match Interp.maximal_executions ~max_steps:200_000 p with
      | execs ->
          let adj =
            List.exists
              (fun e ->
                List.exists (Race.has_adjacent_race vol) (Interleaving.prefixes e))
              execs
          in
          let hb = List.exists (Race.has_hb_race vol) execs in
          adj = hb
      | exception Explorer.Too_many_states _ -> QCheck2.assume_fail ())

let interp_agrees_with_denotation =
  test ~count:40 "interpreter behaviours = explicit-traceset behaviours"
    Generators.program ~print:print_program (fun p ->
      let max_len = Ast.program_size p + 2 in
      let universe = Denote.universe p in
      let ts = Denote.traceset ~universe ~max_len p in
      match
        ( Interp.behaviours ~max_states:200_000 p,
          Explorer.behaviours ~max_states:200_000 (Traceset_system.make ts) )
      with
      | b1, b2 -> Behaviour.Set.equal b1 b2
      | exception Explorer.Too_many_states _ -> QCheck2.assume_fail ())

let theorems_3_4 =
  test ~count:30 "safe rules preserve DRF and behaviours (Thms 3-4)"
    Generators.drf_program ~print:print_program (fun p ->
      let steps =
        Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.all p
      in
      List.for_all
        (fun s ->
          let r =
            Safeopt_opt.Validate.validate ~max_states:200_000 ~original:p
              ~transformed:s.Safeopt_opt.Transform.after ()
          in
          Safeopt_opt.Validate.behaviours_ok r)
        steps)

let lemma4_rules_are_semantic_eliminations =
  (* Lemma 4: every syntactic elimination-rule application denotes a
     semantic elimination of the original's (bounded) traceset. *)
  test ~count:10 "Lemma 4: rule eliminations are semantic eliminations"
    Generators.drf_program ~print:print_program (fun p ->
      if Ast.program_size p > 8 then QCheck2.assume_fail ()
      else
        let steps =
          Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.eliminations
            p
        in
        List.for_all
          (fun s ->
            let r =
              Safeopt_opt.Validate.validate_semantic
                ~max_len:(Ast.program_size p + 2)
                ~relation:Safeopt_opt.Validate.Elimination ~original:p
                ~transformed:s.Safeopt_opt.Transform.after ()
            in
            r.Safeopt_opt.Validate.relation_holds = Some true)
          steps)

let trace_preserving_passes =
  test ~count:40 "constprop and copyprop preserve behaviours and races"
    Generators.program ~print:print_program (fun p ->
      let p' =
        Safeopt_opt.Passes.copy_propagation
          (Safeopt_opt.Passes.constant_propagation p)
      in
      Behaviour.Set.equal (Interp.behaviours p) (Interp.behaviours p')
      && Interp.is_drf p = Interp.is_drf p')

let oota_lemma6 =
  test ~count:40 "values outside the program text are never output"
    Generators.program ~print:print_program (fun p ->
      (* 17 is not produced by any generator *)
      not (Interp.can_output p 17))

let tso_includes_sc =
  test ~count:30 "SC behaviours are TSO behaviours" Generators.program
    ~print:print_program (fun p ->
      Behaviour.Set.subset (Interp.behaviours p)
        (Model.behaviours Model.Tso p))

let por_equivalence =
  test ~count:100 "POR preserves behaviours" Generators.program
    ~print:print_program (fun p ->
      Behaviour.Set.equal
        (Explorer.behaviours ~max_states:200_000 (Helpers.full p))
        (Interp.behaviours ~max_states:200_000 p))

let tso_includes_in_pso =
  test ~count:25 "TSO behaviours are PSO behaviours" Generators.program
    ~print:print_program (fun p ->
      Behaviour.Set.subset
        (Model.behaviours Model.Tso p)
        (Model.behaviours Model.Pso p))

let robustness_enforce =
  test ~count:20 "enforce yields a DRF, TSO-robust program"
    Generators.program ~print:print_program (fun p ->
      let p', _ = Safeopt_model.Robustness.enforce p in
      Interp.is_drf p' && Safeopt_model.Robustness.is_robust p')

let drf_no_tso_weakness =
  test ~count:20 "DRF programs have no TSO-weak behaviours"
    Generators.drf_program ~print:print_program (fun p ->
      Behaviour.Set.is_empty (Model.weak_behaviours Model.Tso p))

let () =
  Alcotest.run "properties"
    [
      ( "traces",
        [
          trace_wf;
          trace_prefixes;
          restrict_partition;
          wildcard_instances;
          depermute_identity;
          trace_syntax_roundtrip;
          eliminable_proper_subset;
          reorder_find_complete;
        ] );
      ( "programs",
        [
          parser_roundtrip;
          race_definitions_agree;
          interp_agrees_with_denotation;
          theorems_3_4;
          lemma4_rules_are_semantic_eliminations;
          trace_preserving_passes;
          oota_lemma6;
          tso_includes_sc;
          por_equivalence;
          tso_includes_in_pso;
          robustness_enforce;
          drf_no_tso_weakness;
        ] );
    ]
