open Safeopt_trace
open Safeopt_exec
open Helpers

let check_b = Alcotest.(check bool)

(* A lock-protected exchange. *)
let i1 =
  il
    [
      (0, st 0);
      (1, st 1);
      (0, lk "m");
      (0, w "x" 1);
      (0, ul "m");
      (1, lk "m");
      (1, r "x" 1);
      (1, ext 1);
      (1, ul "m");
    ]

let ts1 =
  Traceset.of_list
    [
      [ st 0; lk "m"; w "x" 1; ul "m" ];
      [ st 1; lk "m"; r "x" 1; ext 1; ul "m" ];
      [ st 1; lk "m"; r "x" 0; ext 0; ul "m" ];
    ]

let test_projections () =
  Alcotest.(check (list int)) "threads" [ 0; 1 ] (Interleaving.threads i1);
  Alcotest.check trace "trace of 0"
    [ st 0; lk "m"; w "x" 1; ul "m" ]
    (Interleaving.trace_of 0 i1);
  Alcotest.(check int) "thread_index of last" 4 (Interleaving.thread_index i1 8);
  Alcotest.(check int) "thread_index mid" 2 (Interleaving.thread_index i1 3);
  Alcotest.check interleaving "restrict"
    (il [ (0, st 0); (0, lk "m") ])
    (Interleaving.restrict i1 [ 0; 2 ])

let test_entry_points () =
  check_b "ok" true (Interleaving.entry_points_ok i1);
  check_b "wrong entry" false
    (Interleaving.entry_points_ok (il [ (0, st 1) ]));
  check_b "double start" false
    (Interleaving.entry_points_ok (il [ (0, st 0); (0, st 0) ]));
  check_b "missing start" false
    (Interleaving.entry_points_ok (il [ (0, w "x" 1) ]))

let test_mutex () =
  check_b "respects mutex" true (Interleaving.respects_mutex i1);
  let bad =
    il [ (0, st 0); (1, st 1); (0, lk "m"); (1, lk "m") ]
  in
  check_b "double lock" false (Interleaving.respects_mutex bad);
  let reentrant = il [ (0, st 0); (0, lk "m"); (0, lk "m") ] in
  check_b "reentrant self-lock ok" true (Interleaving.respects_mutex reentrant);
  let handover =
    il [ (0, st 0); (1, st 1); (0, lk "m"); (0, ul "m"); (1, lk "m") ]
  in
  check_b "handover ok" true (Interleaving.respects_mutex handover)

let test_interleaving_of () =
  check_b "is interleaving of ts1" true (Interleaving.is_interleaving_of ts1 i1);
  check_b "prefix also ok" true
    (Interleaving.is_interleaving_of ts1 (Interleaving.restrict i1 [ 0; 1; 2 ]));
  let alien = il [ (0, st 0); (0, w "z" 9) ] in
  check_b "alien trace rejected" false
    (Interleaving.is_interleaving_of ts1 alien)

let test_sc () =
  check_b "i1 is SC" true (Interleaving.is_sequentially_consistent i1);
  check_b "sees_write" true (Interleaving.sees_write i1 6 3);
  let stale =
    il [ (0, st 0); (1, st 1); (0, w "x" 1); (1, r "x" 0) ]
  in
  check_b "stale read not SC" false
    (Interleaving.is_sequentially_consistent stale);
  let default_read = il [ (1, st 1); (1, r "x" 0) ] in
  check_b "default read is SC" true
    (Interleaving.is_sequentially_consistent default_read);
  check_b "sees_default" true (Interleaving.sees_default default_read 1);
  let wrong_default = il [ (1, st 1); (1, r "x" 1) ] in
  check_b "non-zero default not SC" false
    (Interleaving.is_sequentially_consistent wrong_default);
  (* intervening write breaks sees_write *)
  let shadowed =
    il [ (0, st 0); (0, w "x" 1); (0, w "x" 2); (0, r "x" 1) ]
  in
  check_b "shadowed write" false
    (Interleaving.is_sequentially_consistent shadowed);
  (* an RMW reads like a read and writes like a write *)
  let u l r w = Action.Rmw (l, r, w) in
  let sc pairs = Interleaving.is_sequentially_consistent (il pairs) in
  check_b "read sees an RMW" true
    (sc [ (0, st 0); (0, u "x" 0 1); (1, st 1); (1, r "x" 1) ]);
  check_b "read misses an RMW" false
    (sc [ (0, st 0); (0, u "x" 0 1); (1, st 1); (1, r "x" 0) ]);
  check_b "RMW reads a stale value" false
    (sc [ (0, st 0); (0, w "x" 1); (0, u "x" 0 2) ]);
  check_b "execution of" true (Interleaving.is_execution_of ts1 i1)

let test_behaviour_memory () =
  Alcotest.check behaviour "behaviour" [ 1 ] (Interleaving.behaviour i1);
  Alcotest.(check (option int)) "final x" (Some 1)
    (Location.Map.find_opt "x" (Interleaving.memory_after i1))

let test_wild_instance () =
  let wi =
    [
      { Interleaving.Wild.tid = 0; elt = c (st 0) };
      { Interleaving.Wild.tid = 0; elt = wild "x" };
      { Interleaving.Wild.tid = 0; elt = c (w "x" 5) };
      { Interleaving.Wild.tid = 0; elt = wild "x" };
    ]
  in
  Alcotest.check interleaving "instance resolves wildcards"
    (il [ (0, st 0); (0, r "x" 0); (0, w "x" 5); (0, r "x" 5) ])
    (Interleaving.Wild.instance wi);
  Alcotest.check wildcard "wild trace_of"
    [ c (st 0); wild "x"; c (w "x" 5); wild "x" ]
    (Interleaving.Wild.trace_of 0 wi);
  Alcotest.(check int) "wild thread_index" 2
    (Interleaving.Wild.thread_index wi 2)

let () =
  Alcotest.run "interleaving"
    [
      ( "interleaving",
        [
          Alcotest.test_case "projections" `Quick test_projections;
          Alcotest.test_case "entry points" `Quick test_entry_points;
          Alcotest.test_case "mutual exclusion" `Quick test_mutex;
          Alcotest.test_case "interleaving-of" `Quick test_interleaving_of;
          Alcotest.test_case "sequential consistency" `Quick test_sc;
          Alcotest.test_case "behaviour and memory" `Quick
            test_behaviour_memory;
          Alcotest.test_case "wildcard instance" `Quick test_wild_instance;
        ] );
    ]
