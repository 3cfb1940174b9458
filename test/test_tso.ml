open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Helpers
module Model = Safeopt_model.Memory_model

let check_b = Alcotest.(check bool)

let test_sb_weak () =
  let sb = Litmus.program Corpus.sb in
  let weak = Model.weak_behaviours Model.Tso sb in
  Alcotest.check behaviour_set "exactly the 0,0 outcome"
    (behaviours_of_list [ [ 0; 0 ] ])
    weak;
  (* TSO includes all SC behaviours *)
  check_b "SC subset of TSO" true
    (Behaviour.Set.subset (Interp.behaviours sb)
       (Model.behaviours Model.Tso sb))

let test_tso_preserves_sc_per_thread_order () =
  (* MP and LB are not weakened by TSO (FIFO buffers) *)
  check_b "mp not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Tso (Litmus.program Corpus.mp)));
  check_b "lb not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Tso (Litmus.program Corpus.lb)));
  check_b "corr not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Tso (Litmus.program Corpus.corr)))

let test_store_forwarding () =
  (* a thread reads its own buffered write *)
  let p = parse "thread { x := 1; r1 := x; print r1; }" in
  let tso = Model.behaviours Model.Tso p in
  check_b "sees own write" true (Behaviour.Set.mem [ 1 ] tso);
  check_b "never sees stale own write" false (Behaviour.Set.mem [ 0 ] tso)

let test_fences () =
  (* volatile writes drain the buffer: volatile SB is SC *)
  let p =
    parse
      "volatile x, y;\n\
       thread { x := 1; r1 := y; print r1; }\n\
       thread { y := 1; r2 := x; print r2; }"
  in
  check_b "volatile sb not weak" true
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Tso p));
  (* locks drain too *)
  let q =
    parse
      "thread { lock m; x := 1; r1 := y; print r1; unlock m; }\n\
       thread { lock m; y := 1; r2 := x; print r2; unlock m; }"
  in
  check_b "locked sb not weak" true
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Tso q))

let test_rmw_flushes_buffer () =
  (* an RMW behaves like an x86 LOCKed instruction: it waits for the
     thread's own buffer to drain and goes straight to memory, so SB
     with xchg stores has no relaxed outcome — unlike plain SB *)
  let p = Litmus.program Corpus.atomic_sb_xchg in
  check_b "sb-with-xchg not weak" true
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Tso p));
  check_b "plain sb is weak (control)" false
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Tso (Litmus.program Corpus.sb)));
  (* the RMW also cannot read its own buffered (unflushed) write stale:
     the preceding plain store drains first, so faa reads 1, returns 1,
     and leaves 2 in memory *)
  let q = parse "thread { x := 1; r1 := faa(x, 1); r2 := x; print r1; print r2; }" in
  Alcotest.check behaviour_set "faa sees the drained store"
    (Interp.behaviours q)
    (Model.behaviours Model.Tso q);
  check_b "reads 1, leaves 2" true
    (Behaviour.Set.mem [ 1; 2 ] (Model.behaviours Model.Tso q))

(* The central section-8 theorem check: DRF programs have no observable
   TSO weakness. *)
let test_drf_no_weakness () =
  List.iter
    (fun t ->
      if t.Litmus.drf then
        let p = Litmus.program t in
        let weak = Model.weak_behaviours Model.Tso p in
        if not (Behaviour.Set.is_empty weak) then
          Alcotest.failf "%s: DRF program has TSO-weak behaviours %a"
            t.Litmus.name Behaviour.Set.pp weak)
    Corpus.all

(* And the explanation claim: TSO behaviours are covered by R-WR +
   E-RAW transformed programs under SC. *)
let test_explained () =
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let ok = Portability.explained_by_transformations Model.Tso p in
      if not ok then
        Alcotest.failf "%s: TSO behaviours not explained by transformations"
          t.Litmus.name)
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.fig2_original ]

(* The section-8 claim as first stated, kept as the spec: the model's
   behaviours lie in the union of the SC behaviours of every program
   reachable through the explaining rules.  [Portability] decides it by
   covering only the weak set, with an early exit; the two must agree. *)
let explained_spec ?(max_programs = 2_000) m p =
  let rules =
    Safeopt_opt.Rule.moves
    @ List.filter_map Safeopt_opt.Rule.by_name (Portability.explaining_rules m)
  in
  let sc_union =
    List.fold_left
      (fun acc q -> Behaviour.Set.union acc (Interp.behaviours q))
      Behaviour.Set.empty
      (Safeopt_opt.Transform.reachable ~max_programs rules p)
  in
  Behaviour.Set.subset (Model.behaviours m p) sc_union

let agrees_with_spec ?max_programs p =
  List.for_all
    (fun m ->
      Portability.explained_by_transformations ?max_programs m p
      = explained_spec ?max_programs m p)
    [ Model.Tso; Model.Pso ]

(* Small rewrite budgets leave some weak behaviours unexplained, so the
   corpus exercises "false" verdicts as well as "true" ones. *)
let test_explained_spec_corpus () =
  List.iter
    (fun t ->
      List.iter
        (fun max_programs ->
          if not (agrees_with_spec ?max_programs (Litmus.program t)) then
            Alcotest.failf "%s: explanation check disagrees with its spec"
              t.Litmus.name)
        [ Some 1; Some 4; None ])
    Corpus.all

let test_explaining_rules () =
  Alcotest.(check (list string))
    "sc" [] (Portability.explaining_rules Model.Sc);
  Alcotest.(check (list string))
    "tso" [ "R-WR"; "E-RAW" ]
    (Portability.explaining_rules Model.Tso);
  Alcotest.(check (list string))
    "pso" [ "R-WW"; "R-WR"; "E-RAW" ]
    (Portability.explaining_rules Model.Pso)

let qcheck_explained_spec =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5ec8; 8 |])
    (QCheck2.Test.make
       ~name:"explanation check = spec under TSO and PSO (100 programs)"
       ~count:100 ~print:Safeopt_gen.Generators.print_program
       Safeopt_gen.Generators.program agrees_with_spec)

let () =
  Alcotest.run "tso"
    [
      ( "tso",
        [
          Alcotest.test_case "SB weakness" `Quick test_sb_weak;
          Alcotest.test_case "FIFO order preserved" `Quick
            test_tso_preserves_sc_per_thread_order;
          Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
          Alcotest.test_case "fences" `Quick test_fences;
          Alcotest.test_case "RMWs flush the buffer" `Quick
            test_rmw_flushes_buffer;
          Alcotest.test_case "DRF implies no weakness" `Slow
            test_drf_no_weakness;
          Alcotest.test_case "explained by transformations" `Slow
            test_explained;
        ] );
      ( "section 8 spec",
        [
          Alcotest.test_case "explaining rules" `Quick test_explaining_rules;
          Alcotest.test_case "explanation = spec on the corpus" `Slow
            test_explained_spec_corpus;
          qcheck_explained_spec;
        ] );
    ]
