open Safeopt_exec
open Safeopt_lang
open Safeopt_opt
open Helpers

let check_b = Alcotest.(check bool)

let same_traceset p p' =
  (* trace-preservation: bounded denotations agree exactly *)
  let universe = Denote.joint_universe [ p; p' ] in
  Safeopt_trace.Traceset.equal
    (Denote.traceset ~universe ~max_len:10 p)
    (Denote.traceset ~universe ~max_len:10 p')

let test_constprop () =
  let p = parse "thread { r1 := 5; r2 := r1; x := r2; print r2; }" in
  let p' = Passes.constant_propagation p in
  check_b "propagated into move" true
    (Ast.equal_program p'
       (parse "thread { r1 := 5; r2 := 5; x := r2; print r2; }"));
  check_b "trace preserving" true (same_traceset p p');
  (* loads kill knowledge *)
  let q = parse "thread { r1 := 5; r1 := x; r2 := r1; }" in
  check_b "load kills" true
    (Ast.equal_program (Passes.constant_propagation q) q);
  (* joins: only agreeing constants survive *)
  let j =
    parse
      "thread { if (r9 == 0) r1 := 5; else r1 := 6; r2 := r1; if (r9 == 0) \
       r3 := 7; else r3 := 7; r4 := r3; }"
  in
  let j' = Passes.constant_propagation j in
  check_b "disagreeing branch not propagated" true
    (contains_substring (Pp.program_to_string j') "r2 := r1;");
  check_b "agreeing branch propagated" true
    (contains_substring (Pp.program_to_string j') "r4 := 7;");
  (* loop bodies invalidate assigned registers *)
  let l = parse "thread { r1 := 5; while (r9 == 0) { r1 := x; } r2 := r1; }" in
  let l' = Passes.constant_propagation l in
  check_b "loop kills" true
    (contains_substring (Pp.program_to_string l') "r2 := r1;")

let test_copyprop () =
  let p = parse "thread { r1 := x; r2 := r1; y := r2; print r2; }" in
  let p' = Passes.copy_propagation p in
  check_b "store uses source" true
    (contains_substring (Pp.program_to_string p') "y := r1;");
  check_b "print uses source" true
    (contains_substring (Pp.program_to_string p') "print r1;");
  check_b "trace preserving" true (same_traceset p p');
  (* overwriting the source kills the copy *)
  let q = parse "thread { r1 := x; r2 := r1; r1 := 5; y := r2; }" in
  let q' = Passes.copy_propagation q in
  check_b "killed copy not used" true
    (contains_substring (Pp.program_to_string q') "y := r2;")

let test_eliminate_redundancy () =
  let p = parse "thread { x := r1; r2 := x; y := r2; r3 := x; }" in
  let p', chain = Passes.eliminate_redundancy p in
  check_b "chain nonempty" true (chain <> []);
  check_b "chain is all elimination rules" true
    (List.for_all
       (fun s ->
         List.exists
           (fun r -> r.Rule.name = s.Transform.rule)
           Rule.eliminations)
       chain);
  (* the result has fewer memory accesses *)
  let count p =
    Safeopt_trace.Traceset.cardinal
      (Denote.traceset ~universe:[ 0; 1 ] ~max_len:10 p)
  in
  check_b "smaller denotation" true (count p' <= count p);
  (* and the DRF guarantee holds (single thread, DRF) *)
  let report = Validate.validate ~original:p ~transformed:p' () in
  check_b "validated" true (Validate.ok report)

let test_reorder_fixpoint () =
  let p = parse "thread { x := r1; lock m; r2 := y; unlock m; }" in
  let p', chain = Passes.reorder_fixpoint ~prefer:[ "R-WL" ] p in
  check_b "roach motel applied" true (List.length chain = 1);
  check_b "store now inside" true
    (Ast.equal_program p'
       (parse "thread { lock m; x := r1; r2 := y; unlock m; }"))

let test_fig3_pipeline () =
  let a = Safeopt_litmus.Litmus.program Safeopt_litmus.Corpus.fig3_a in
  let b = Passes.introduce_irrelevant_reads a in
  check_b "reads introduced" true (not (Ast.equal_program a b));
  check_b "SC behaviours preserved" true
    (Behaviour.Set.equal (Interp.behaviours a) (Interp.behaviours b));
  check_b "(a) DRF" true (Interp.is_drf a);
  check_b "(b) racy" false (Interp.is_drf b);
  let c = Passes.eliminate_reads_across_acquires b in
  check_b "elimination fired" true (not (Ast.equal_program b c));
  check_b "(c) prints two zeros" true
    (Behaviour.Set.mem [ 0; 0 ] (Interp.behaviours c));
  check_b "(b) does not" false (Behaviour.Set.mem [ 0; 0 ] (Interp.behaviours b))

let test_cross_acquire_rule () =
  (* E-RAR-ACQ fires across a lock but not across unlock-then-lock *)
  let p = parse "thread { r1 := x; lock m; r2 := x; unlock m; }" in
  check_b "across acquire ok" true
    (Transform.program_rewrites [ Passes.e_rar_across_acquires ] p <> []);
  let q =
    parse
      "thread { r1 := x; lock m; skip; unlock m; lock m; r2 := x; unlock m; }"
  in
  check_b "release-then-acquire blocks" true
    (Transform.program_rewrites [ Passes.e_rar_across_acquires ] q = [])

let test_dead_moves () =
  let p = parse "thread { r1 := 5; r2 := 6; x := r2; }" in
  let p' = Passes.dead_moves p in
  check_b "dead move gone" true
    (Ast.equal_program p' (parse "thread { r2 := 6; x := r2; }"));
  check_b "trace preserving" true (same_traceset p p');
  (* a move read inside a later loop is kept *)
  let q =
    parse "thread { r1 := 5; while (r9 != 1) { x := r1; r9 := y; } }"
  in
  check_b "loop use keeps move" true
    (Ast.equal_program (Passes.dead_moves q) q)

let test_dead_loads () =
  let p = parse "thread { r1 := x; r2 := y; print r2; }" in
  let p' = Passes.dead_loads p in
  check_b "dead load gone" true
    (Ast.equal_program p' (parse "thread { r2 := y; print r2; }"));
  (* irrelevant-read elimination is a semantic elimination, not
     trace-preserving *)
  check_b "not trace preserving" false (same_traceset p p');
  let r =
    Validate.validate_semantic ~max_len:8 ~relation:Validate.Elimination
      ~original:p ~transformed:p' ()
  in
  check_b "but a semantic elimination" true
    (r.Validate.relation_holds = Some true)

(* A dead volatile load is an acquire, and no clause of Definition 1
   eliminates one: the pass drops the dead plain load beside it and
   keeps it. *)
let test_dead_volatile_loads () =
  let p =
    parse "volatile v;\nthread { r1 := v; r2 := x; r3 := y; print r3; }"
  in
  check_b "dead plain load gone, dead volatile load kept" true
    (Ast.equal_program (Passes.dead_loads p)
       (parse "volatile v;\nthread { r1 := v; r3 := y; print r3; }"))

let test_fold_branches () =
  let p =
    parse
      "thread { if (1 == 1) x := r1; else y := r1; if (0 == 1) z := r1; \
       else skip; while (2 != 2) q := r1; }"
  in
  let p' = Passes.normalise (Passes.fold_branches p) in
  check_b "folded to the single store" true
    (Ast.equal_program p' (parse "thread { x := r1; }"));
  check_b "trace preserving" true (same_traceset p p')

let test_normalise () =
  let p =
    parse "thread { skip; { skip; x := r1; { y := r1; } } skip; }"
  in
  let p' = Passes.normalise p in
  check_b "flattened" true
    (Ast.equal_program p' (parse "thread { x := r1; y := r1; }"));
  check_b "trace preserving" true (same_traceset p p')

let test_unroll () =
  let p =
    parse
      "thread { while (r1 != 1) r1 := flag; print r1; }\n\
       thread { flag := 1; }"
  in
  let p' = Passes.unroll_loops ~depth:2 p in
  check_b "still has the loop" true (Safeopt_lang.Thread_system.has_loop p');
  (* unrolling is an identity in the trace semantics: same bounded
     denotation *)
  let universe = Denote.joint_universe [ p; p' ] in
  check_b "same denotation" true
    (Safeopt_trace.Traceset.equal
       (Denote.traceset ~universe ~max_len:7 p)
       (Denote.traceset ~universe ~max_len:7 p'));
  (* and same behaviours under the same fuel *)
  check_b "same behaviours" true
    (Behaviour.Set.equal
       (Interp.behaviours ~fuel:12 p)
       (Interp.behaviours ~fuel:12 p'))

let test_pipeline () =
  let p = parse "thread { r1 := 5; r2 := r1; x := r2; r3 := x; }" in
  let spec = "constprop;copyprop;dead-loads;dead-moves;normalise" in
  (match Pipeline.parse spec with
  | Ok spec ->
      let p' = (Pipeline.run spec p).Pipeline.final in
      check_b "pipeline shrinks" true
        (Ast.program_size p' < Ast.program_size p);
      let r = Validate.validate ~original:p ~transformed:p' () in
      check_b "validated" true (Validate.ok r)
  | Error e -> Alcotest.fail e);
  check_b "unknown pass rejected" true (Result.is_error (Pipeline.parse "nope"))

(* The cleanup-and-redundancy pipeline a small compiler would run. *)
let optimise p =
  match Pipeline.parse "constprop;copyprop;redundancy;dead-moves;normalise" with
  | Ok spec -> (Pipeline.run spec p).Pipeline.final
  | Error e -> Alcotest.fail e

let test_optimise_safe_on_corpus () =
  List.iter
    (fun t ->
      let p = Safeopt_litmus.Litmus.program t in
      let p' = optimise p in
      let report = Validate.validate ~original:p ~transformed:p' () in
      if not (Validate.behaviours_ok report) then
        Alcotest.failf "%s: optimise broke the DRF guarantee"
          t.Safeopt_litmus.Litmus.name)
    Safeopt_litmus.Corpus.all

let () =
  Alcotest.run "passes"
    [
      ( "trace-preserving",
        [
          Alcotest.test_case "constant propagation" `Quick test_constprop;
          Alcotest.test_case "copy propagation" `Quick test_copyprop;
        ] );
      ( "rule-driven",
        [
          Alcotest.test_case "redundancy elimination" `Quick
            test_eliminate_redundancy;
          Alcotest.test_case "reorder fixpoint" `Quick test_reorder_fixpoint;
          Alcotest.test_case "fig 3 pipeline" `Quick test_fig3_pipeline;
          Alcotest.test_case "cross-acquire rule" `Quick
            test_cross_acquire_rule;
          Alcotest.test_case "optimise is safe on the corpus" `Slow
            test_optimise_safe_on_corpus;
        ] );
      ( "new passes",
        [
          Alcotest.test_case "dead moves" `Quick test_dead_moves;
          Alcotest.test_case "dead loads" `Quick test_dead_loads;
          Alcotest.test_case "dead volatile loads kept" `Quick
            test_dead_volatile_loads;
          Alcotest.test_case "branch folding" `Quick test_fold_branches;
          Alcotest.test_case "normalisation" `Quick test_normalise;
          Alcotest.test_case "loop unrolling" `Quick test_unroll;
          Alcotest.test_case "pipeline" `Quick test_pipeline;
        ] );
    ]
