open Safeopt_lang
open Safeopt_litmus
open Safeopt_model

let check_b = Alcotest.(check bool)

let test_sb () =
  let sb = Litmus.program Corpus.sb in
  check_b "sb not robust" false (Robustness.is_robust sb);
  let sb', promoted = Robustness.enforce sb in
  check_b "promotions happened" true (promoted <> []);
  check_b "now DRF" true (Interp.is_drf sb');
  check_b "now robust" true (Robustness.is_robust sb');
  (* behaviours under SC unchanged by volatility annotations *)
  check_b "SC behaviours unchanged" true
    (Safeopt_exec.Behaviour.Set.equal (Interp.behaviours sb)
       (Interp.behaviours sb'))

let test_already_drf () =
  let p = Litmus.program Corpus.mp_locked in
  let p', promoted = Robustness.enforce p in
  check_b "no promotions" true (promoted = []);
  check_b "unchanged" true (Ast.equal_program p p')

let test_raced_location () =
  let sb = Litmus.program Corpus.sb in
  (match Robustness.raced_location sb with
  | Some l -> check_b "raced location is x or y" true (l = "x" || l = "y")
  | None -> Alcotest.fail "sb must have a raced location");
  check_b "DRF program has none" true
    (Robustness.raced_location (Litmus.program Corpus.fig3_a) = None)

let test_mp () =
  let mp = Litmus.program Corpus.mp in
  let mp', promoted = Robustness.enforce mp in
  check_b "flag (at least) promoted" true (promoted <> []);
  check_b "mp robust afterwards" true (Robustness.is_robust mp');
  check_b "PSO-robust too (DRF covers PSO as well)" true
    (Safeopt_exec.Behaviour.Set.is_empty
       Memory_model.(weak_behaviours Pso mp'))

let test_whole_corpus () =
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let p', _ = Robustness.enforce p in
      if not (Interp.is_drf p') then
        Alcotest.failf "%s: enforce did not reach DRF" t.Litmus.name;
      if not (Robustness.is_robust p') then
        Alcotest.failf "%s: enforced program still TSO-weak" t.Litmus.name)
    Corpus.all

let () =
  Alcotest.run "robustness"
    [
      ( "robustness",
        [
          Alcotest.test_case "store buffering" `Quick test_sb;
          Alcotest.test_case "already DRF" `Quick test_already_drf;
          Alcotest.test_case "raced location" `Quick test_raced_location;
          Alcotest.test_case "message passing" `Quick test_mp;
          Alcotest.test_case "whole corpus" `Slow test_whole_corpus;
        ] );
    ]
