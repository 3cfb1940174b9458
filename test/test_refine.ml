(* The thread-local refinement analysis (Refine) and the validator
   ladder built on it: unit coverage of the per-thread verdicts and the
   structural preconditions, then the differential property against the
   exhaustive oracle — a Safe verdict must imply the exhaustive one,
   counterexamples must replay as real transformed-thread traces, and
   the auto ladder must agree with pure exhaustive enumeration, both
   sequentially and on a 2-domain pool. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_exec
open Safeopt_gen
open Helpers
module Refine = Safeopt_analysis.Refine
module Validate = Safeopt_opt.Validate
module Pipeline = Safeopt_opt.Pipeline
module Pass = Safeopt_opt.Pass

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- unit: per-thread verdicts ----------------------------------------- *)

let rr2 =
  parse
    "thread { r1 := x0; r2 := x0; print r2; }\n\
     thread { r1 := x1; r2 := x1; print r2; }"

(* rr2 after cse: the second (redundant) read of each private location
   becomes a register move — E-RAR, once per thread *)
let rr2_cse =
  parse
    "thread { r1 := x0; r2 := r1; print r2; }\n\
     thread { r1 := x1; r2 := r1; print r2; }"

let test_identical_threads () =
  let r = Refine.check ~original:rr2 ~transformed:rr2 () in
  check_b "safe" true (Refine.verdict r = Refine.Safe);
  check_b "no precondition blocked" true (r.Refine.blocked = None);
  check_b "every thread Identical without enumeration" true
    (List.for_all (fun (_, v) -> v = Refine.Identical) r.Refine.threads)

let test_rar_refines_per_thread () =
  let r = Refine.check ~original:rr2 ~transformed:rr2_cse () in
  check_b "safe" true (Refine.verdict r = Refine.Safe);
  check_i "two threads analysed" 2 (List.length r.Refine.threads);
  check_b "both threads refine with witnessed traces" true
    (List.for_all
       (fun (_, v) ->
         match v with Refine.Refines { traces } -> traces > 0 | _ -> false)
       r.Refine.threads)

let test_untouched_thread_is_identical () =
  (* rewrite only thread 1: thread 0 must stay on the Identical fast
     path while thread 1 needs the traceset search *)
  let mixed =
    parse
      "thread { r1 := x0; r2 := x0; print r2; }\n\
       thread { r1 := x1; r2 := r1; print r2; }"
  in
  let r = Refine.check ~original:rr2 ~transformed:mixed () in
  check_b "safe" true (Refine.verdict r = Refine.Safe);
  check_b "thread 0 identical" true
    (List.assoc 0 r.Refine.threads = Refine.Identical);
  check_b "thread 1 refines" true
    (match List.assoc 1 r.Refine.threads with
    | Refine.Refines _ -> true
    | _ -> false)

let test_thread_count_blocked () =
  let one = parse "thread { x := r1; }" in
  let two = parse "thread { x := r1; }\nthread { y := r2; }" in
  let r = Refine.check ~original:one ~transformed:two () in
  check_b "blocked" true (Option.is_some r.Refine.blocked);
  check_b "unknown verdict" true
    (match Refine.verdict r with Refine.Unknown _ -> true | _ -> false)

let test_volatile_change_blocked () =
  let plain = parse "thread { v := r1; }" in
  let vol = parse "volatile v;\nthread { v := r1; }" in
  let r = Refine.check ~original:plain ~transformed:vol () in
  check_b "blocked" true (Option.is_some r.Refine.blocked);
  check_b "unknown verdict" true
    (match Refine.verdict r with Refine.Unknown _ -> true | _ -> false)

let test_counterexample_replays () =
  (* the transformed thread prints 1 where the original can only print
     its (zero-initialised) register: no elimination/reordering witness
     exists, and the counterexample must be a real transformed trace *)
  let original = parse "thread { print r1; }" in
  let transformed = parse "thread { r1 := 1; print r1; }" in
  let r = Refine.check ~original ~transformed () in
  match Refine.verdict r with
  | Refine.Counterexample (tid, t) ->
      check_i "counterexample on thread 0" 0 tid;
      let universe = Denote.joint_universe [ original; transformed ] in
      let ts, complete =
        Denote.thread_traces ~universe ~max_len:r.Refine.max_len ~tid
          (List.nth transformed.Ast.threads tid)
      in
      check_b "transformed enumeration complete" true complete;
      check_b "counterexample is a transformed thread trace" true
        (Traceset.mem t ts);
      (match Refine.witness ~original ~transformed r with
      | Some w ->
          check_b "witness carries the trace" true
            (w.Safeopt_core.Witness.evidence
            = Safeopt_core.Witness.Relation_failure t)
      | None -> Alcotest.fail "no structured witness for the counterexample");
      (* the same pair under the ladder: auto escalates and agrees with
         the exhaustive verdict (here: a genuinely new behaviour) *)
      let exh =
        Validate.run_validator Validate.Exhaustive ~original ~transformed ()
      in
      let auto = Validate.run_validator Validate.Auto ~original ~transformed () in
      check_b "exhaustive rejects" false (Validate.outcome_ok exh);
      check_b "auto agrees" false (Validate.outcome_ok auto);
      check_b "auto decided by the exhaustive rung" true
        (Validate.method_tag auto = "exhaustive")
  | v ->
      Alcotest.failf "expected a counterexample, got %a" Refine.pp_verdict v

let test_atomic_escalates_not_rejects () =
  (* an RMW's written value (faa adds) can fall outside the
     literal-derived universe, so the per-thread comparison must return
     Bounded — escalating the auto ladder to exhaustive — and never a
     Counterexample for this perfectly safe E-RAR rewrite *)
  let original =
    parse "thread { r1 := faa(c, 1); r2 := x; r3 := x; print r1; }"
  in
  let transformed =
    parse "thread { r1 := faa(c, 1); r2 := x; r3 := r2; print r1; }"
  in
  let r = Refine.check ~original ~transformed () in
  (match List.assoc 0 r.Refine.threads with
  | Refine.Bounded _ -> ()
  | v ->
      Alcotest.failf "expected Bounded on the atomic thread, got %a"
        Refine.pp_thread_verdict v);
  check_b "unknown, not counterexample" true
    (match Refine.verdict r with Refine.Unknown _ -> true | _ -> false);
  let auto = Validate.run_validator Validate.Auto ~original ~transformed () in
  let exh =
    Validate.run_validator Validate.Exhaustive ~original ~transformed ()
  in
  check_b "auto accepts via escalation" true (Validate.outcome_ok auto);
  check_b "auto decided by the exhaustive rung" true
    (Validate.method_tag auto = "exhaustive");
  check_b "agrees with exhaustive" true (Validate.outcome_ok exh);
  (* identical atomic threads still take the static fast path *)
  let r_id = Refine.check ~original ~transformed:original () in
  check_b "identical atomic thread stays Identical" true
    (List.assoc 0 r_id.Refine.threads = Refine.Identical)

let test_truncation_is_unknown_not_safe () =
  (* both sides loop forever writing x: the transformed enumeration hits
     max_len, so the thread is Bounded and the verdict Unknown — a
     truncated enumeration must never certify Safe *)
  let original = parse "thread { while (r1 == 0) { x := r2; } }" in
  let transformed =
    parse "thread { while (r1 == 0) { x := r2; x := r2; } }"
  in
  let r = Refine.check ~max_len:6 ~original ~transformed () in
  check_b "bounded thread" true
    (List.exists
       (fun (_, v) -> match v with Refine.Bounded _ -> true | _ -> false)
       r.Refine.threads);
  check_b "unknown verdict" true
    (match Refine.verdict r with Refine.Unknown _ -> true | _ -> false)

(* --- README tail draws ------------------------------------------------- *)

(* Draw [k] is the [k]-th (from 0) program of [Generators.program] and
   registry pass drawn in turn from [Random.State.make [| 42 |]].  The
   refine rung took seconds to minutes on draws 1026 (roach-motel, which
   refine cannot decide) and 3996 (normalise, which it accepts); auto's
   verdict must stay exhaustive's. *)
let tail_draw k =
  let rand = Random.State.make [| 42 |] in
  let registry = Array.of_list Pipeline.registry in
  let draw () =
    let p = QCheck2.Gen.generate1 ~rand Generators.program in
    (registry.(Random.State.int rand (Array.length registry)), p)
  in
  for _ = 1 to k do
    ignore (draw ())
  done;
  draw ()

let test_tail_draw k pass_name () =
  let (pass : Pass.t), original = tail_draw k in
  Alcotest.(check string) "pass" pass_name pass.Pass.name;
  let transformed = (pass.Pass.run original).Pass.program in
  let auto = Validate.run_validator Validate.Auto ~original ~transformed () in
  let exh =
    Validate.run_validator Validate.Exhaustive ~original ~transformed ()
  in
  check_b "auto = exhaustive" (Validate.outcome_ok exh)
    (Validate.outcome_ok auto)

(* --- differential vs the exhaustive oracle ------------------------------ *)

let rand () = Random.State.make [| 0x5afe1; 7 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t
let pool2 = Par.Pool.create 2

let print_case ((pass : Pass.t), p) =
  Fmt.str "pass: %s@.%s" pass.Pass.name (Generators.print_program p)

(* Every registered pass, the deliberately unsafe controls included:
   unsafe rewrites are exactly where the Counterexample/escalation arm
   of the property earns its keep. *)
let case_gen =
  QCheck2.Gen.(pair (oneofl Pipeline.registry) Generators.program)

let differential ~name ?pool () =
  to_alcotest
    (QCheck2.Test.make ~name ~count:300 ~print:print_case case_gen
       (fun ((pass : Pass.t), p) ->
         let transformed = (pass.Pass.run p).Pass.program in
         (* tight bounds keep 2x300 cases cheap; truncation soundly
            degrades Safe to Unknown, never flips a verdict *)
         let r =
           Refine.check ~max_len:6 ~max_traces:2_000 ~original:p ~transformed
             ()
         in
         let exh = Validate.validate ?pool ~original:p ~transformed () in
         (match Refine.verdict r with
         | Refine.Safe ->
             (* a Safe verdict is a soundness claim: the exhaustive
                oracle must agree *)
             if not (Validate.ok exh) then
               QCheck2.Test.fail_report
                 "refine said Safe but the exhaustive oracle rejects"
         | Refine.Counterexample (tid, t) ->
             (* negative verdicts only escalate, but the counterexample
                must still be a genuine transformed-thread trace *)
             let universe = Denote.joint_universe [ p; transformed ] in
             let ts, _ =
               Denote.thread_traces ~universe ~max_len:6 ~tid
                 (List.nth transformed.Ast.threads tid)
             in
             if not (Traceset.mem t ts) then
               QCheck2.Test.fail_report
                 "counterexample is not a transformed thread trace";
             if Option.is_none (Refine.witness ~original:p ~transformed r)
             then QCheck2.Test.fail_report "counterexample lost its witness"
         | Refine.Unknown _ -> ());
         (* the ladder invariant: auto's verdict equals exhaustive's *)
         let auto =
           Validate.run_validator ?pool ~max_len:6 ~max_traces:2_000
             Validate.Auto ~original:p ~transformed ()
         in
         Validate.outcome_ok auto = Validate.ok exh))

let () =
  Alcotest.run "refine"
    [
      ( "thread-verdicts",
        [
          Alcotest.test_case "identical threads" `Quick test_identical_threads;
          Alcotest.test_case "E-RAR refines per thread" `Quick
            test_rar_refines_per_thread;
          Alcotest.test_case "untouched thread stays identical" `Quick
            test_untouched_thread_is_identical;
          Alcotest.test_case "thread count change blocks" `Quick
            test_thread_count_blocked;
          Alcotest.test_case "volatile change blocks" `Quick
            test_volatile_change_blocked;
          Alcotest.test_case "counterexample replays as witness" `Quick
            test_counterexample_replays;
          Alcotest.test_case "atomic updates escalate, never reject" `Quick
            test_atomic_escalates_not_rejects;
          Alcotest.test_case "truncation is Unknown, never Safe" `Quick
            test_truncation_is_unknown_not_safe;
          Alcotest.test_case "tail draw 1026" `Quick
            (test_tail_draw 1026 "roach-motel");
          Alcotest.test_case "tail draw 3996" `Quick
            (test_tail_draw 3996 "normalise");
        ] );
      ( "differential",
        [
          differential ~name:"refine vs exhaustive oracle (jobs 1)" ();
          differential ~name:"refine vs exhaustive oracle (jobs 2)"
            ~pool:pool2 ();
        ] );
    ]
