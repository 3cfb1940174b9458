open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Helpers

let check_b = Alcotest.(check bool)

(* A program with plenty of thread-local work around the shared
   accesses: POR should prune, behaviours must not change. *)
let heavy =
  parse
    "thread { a1 := 1; a1 := 2; a2 := 1; shared := r1; a3 := 1; }\n\
     thread { b1 := 1; b2 := 1; r2 := shared; b3 := 1; print r2; }"

let test_equivalence () =
  Alcotest.check behaviour_set "same behaviours with and without POR"
    (Explorer.behaviours (full heavy))
    (Interp.behaviours heavy);
  List.iter
    (fun t ->
      let p = Litmus.program t in
      if not
           (Behaviour.Set.equal
              (Explorer.behaviours (full p))
              (Interp.behaviours p))
      then Alcotest.failf "%s: POR changed behaviours" t.Litmus.name)
    Corpus.all

let test_reduction () =
  let full = Explorer.count_states (full heavy) in
  let reduced = Interp.count_states heavy in
  check_b
    (Printf.sprintf "POR explores fewer states (%d < %d)" reduced full)
    true (reduced < full)

let test_local_predicate () =
  let local = (Thread_system.make heavy).System.local in
  check_b "start is local" true (local (st 0));
  check_b "private location is local" true (local (w "a1" 1));
  check_b "shared location is not" false (local (w "shared" 1));
  check_b "shared read is not" false (local (r "shared" 0));
  check_b "external is not local" false (local (ext 1));
  check_b "lock is not local" false (local (lk "m"))

let test_same_location_rmws_dependent () =
  (* regression: Action.conflicting excuses the rmw-rmw pair (atomicity
     orders them, so they never race), but the explorer must still treat
     same-location RMWs as dependent — their order decides which faa
     ticket each thread gets.  If POR wrongly commuted them, one of the
     two print orders would disappear from the reduced exploration. *)
  let p = Litmus.program Corpus.atomic_faa_counter in
  let full = Explorer.behaviours (full p) in
  let reduced = Interp.behaviours p in
  Alcotest.check behaviour_set "reduced = full on the faa counter" full
    reduced;
  check_b "both ticket orders survive POR" true
    (Behaviour.Set.mem [ 0; 1 ] reduced && Behaviour.Set.mem [ 1; 0 ] reduced)

let test_all_shared () =
  (* when every location is shared, only the start actions (which
     always commute) are reduced; behaviours are untouched *)
  let sb = Litmus.program Corpus.sb in
  check_b "still some reduction from starts" true
    (Interp.count_states sb <= Explorer.count_states (full sb));
  Alcotest.check behaviour_set "behaviours identical"
    (Explorer.behaviours (full sb))
    (Interp.behaviours sb)

let () =
  Alcotest.run "por"
    [
      ( "partial-order reduction",
        [
          Alcotest.test_case "behaviour equivalence" `Slow test_equivalence;
          Alcotest.test_case "state reduction" `Quick test_reduction;
          Alcotest.test_case "local predicate" `Quick test_local_predicate;
          Alcotest.test_case "same-location RMWs stay dependent" `Quick
            test_same_location_rmws_dependent;
          Alcotest.test_case "all-shared case" `Quick test_all_shared;
        ] );
    ]
