(* The unified exploration engine — the repository's single exploration
   entry point: core engine semantics over explicit tracesets
   (behaviours, executions, locks, deadlock, sampling, budgets), stats
   consistency, POR soundness over the litmus corpus, and
   streaming early exit. *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Helpers

let corpus_programs () = List.map Litmus.program Corpus.all

let check = Alcotest.(check bool)
let check_b = check

(* --- engine semantics over explicit tracesets --------------------- *)

(* SB as an explicit traceset over {0,1}. *)
let sb_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         [ [ st 0; w "x" 1; r "y" v; ext v ]; [ st 1; w "y" 1; r "x" v; ext v ] ])
       [ 0; 1 ])

let test_behaviours () =
  let bs = Explorer.behaviours (Traceset_system.make sb_ts) in
  check_b "prefix closed" true (Behaviour.Set.is_prefix_closed bs);
  check_b "can 0,1" true (Behaviour.Set.mem [ 0; 1 ] bs);
  check_b "can 1,1" true (Behaviour.Set.mem [ 1; 1 ] bs);
  check_b "cannot 0,0 (SC)" false (Behaviour.Set.mem [ 0; 0 ] bs)

let test_executions () =
  let execs = Explorer.maximal_executions (Traceset_system.make sb_ts) in
  check_b "nonempty" true (execs <> []);
  check_b "all SC" true
    (List.for_all Interleaving.is_sequentially_consistent execs);
  check_b "all are executions of the traceset" true
    (List.for_all (Interleaving.is_execution_of sb_ts) execs);
  (* every maximal execution runs all 8 actions *)
  check_b "maximal length" true
    (List.for_all (fun i -> Interleaving.length i = 8) execs);
  Alcotest.(check int) "count matches count_executions"
    (List.length execs)
    (Explorer.count_executions (Traceset_system.make sb_ts))

(* The caller's stats record sees the transitions the stream walked. *)
let test_executions_stats () =
  let s = Explorer.create_stats () in
  ignore (Explorer.maximal_executions ~stats:s (Traceset_system.make sb_ts));
  check_b "maximal_executions counts edges" true (s.Explorer.edges > 0);
  let s' = Explorer.create_stats () in
  ignore (Explorer.count_executions ~stats:s' (Traceset_system.make sb_ts));
  check_b "count_executions counts the same edges" true
    (s'.Explorer.edges = s.Explorer.edges)

let is_drf ts =
  Option.is_none (Explorer.find_adjacent_race none (Traceset_system.make ts))

let test_race_search () =
  check_b "sb racy" false (is_drf sb_ts);
  let locked =
    Traceset.of_list
      [
        [ st 0; lk "m"; w "x" 1; ul "m" ];
        [ st 1; lk "m"; r "x" 0; ul "m" ];
        [ st 1; lk "m"; r "x" 1; ul "m" ];
      ]
  in
  check_b "locked drf" true (is_drf locked);
  (* The one race, W[x=1] then R[x=1], needs thread 1's R[y=0] first:
     R[x=1] is offered only once W[x=1] has run, so the test must re-run
     thread 1's read against the written value. *)
  let late =
    Traceset.of_list [ [ st 0; w "x" 1 ]; [ st 1; r "y" 0; r "x" 1 ] ]
  in
  check_b "race behind a revisited state" false (is_drf late)

let test_locks_block () =
  (* Two threads both want m; the engine must serialise them. *)
  let ts =
    Traceset.of_list
      [
        [ st 0; lk "m"; w "x" 1; ul "m" ];
        [ st 1; lk "m"; w "x" 2; ul "m" ];
      ]
  in
  let execs = Explorer.maximal_executions (Traceset_system.make ts) in
  check_b "all respect mutex" true
    (List.for_all Interleaving.respects_mutex execs);
  (* Deadlock shape: each thread holds one lock and wants the other;
     maximal executions may be stuck before completion. *)
  let dl =
    Traceset.of_list
      [
        [ st 0; lk "m"; lk "n"; ul "n"; ul "m" ];
        [ st 1; lk "n"; lk "m"; ul "m"; ul "n" ];
      ]
  in
  let dl_execs = Explorer.maximal_executions (Traceset_system.make dl) in
  check_b "some execution deadlocks" true
    (List.exists (fun i -> Interleaving.length i < 10) dl_execs);
  check_b "some execution completes" true
    (List.exists (fun i -> Interleaving.length i = 10) dl_execs)

let test_deadlock () =
  let dl =
    Traceset.of_list
      [
        [ st 0; lk "m"; lk "n"; ul "n"; ul "m" ];
        [ st 1; lk "n"; lk "m"; ul "m"; ul "n" ];
      ]
  in
  (match Explorer.find_deadlock (Traceset_system.make dl) with
  | Some i ->
      check_b "witness is a prefix execution" true
        (Interleaving.is_sequentially_consistent i)
  | None -> Alcotest.fail "lock inversion must deadlock");
  (* consistent lock order: no deadlock *)
  let ordered =
    Traceset.of_list
      [
        [ st 0; lk "m"; lk "n"; ul "n"; ul "m" ];
        [ st 1; lk "m"; lk "n"; ul "n"; ul "m" ];
      ]
  in
  check_b "ordered locks deadlock-free" true
    (Explorer.find_deadlock (Traceset_system.make ordered) = None)

let test_sampling () =
  let bs_full = Explorer.behaviours (Traceset_system.make sb_ts) in
  let bs_sample =
    Explorer.sample_behaviours ~seed:7 ~runs:200 (Traceset_system.make sb_ts)
  in
  check_b "sampled subset of exhaustive" true
    (Behaviour.Set.subset bs_sample bs_full);
  check_b "sampling finds something" true
    (Behaviour.Set.cardinal bs_sample > 1);
  (* determinism for a fixed seed *)
  check_b "deterministic" true
    (Behaviour.Set.equal bs_sample
       (Explorer.sample_behaviours ~seed:7 ~runs:200
          (Traceset_system.make sb_ts)))

let test_budget () =
  Alcotest.check_raises "state budget enforced"
    (Explorer.Too_many_states 3) (fun () ->
      ignore (Explorer.count_states ~max_states:2 (Traceset_system.make sb_ts)))

let test_count_states () =
  let n = Explorer.count_states (Traceset_system.make sb_ts) in
  check_b "some states" true (n > 10);
  (* memoisation: states are far fewer than execution steps *)
  let execs = Explorer.count_executions (Traceset_system.make sb_ts) in
  check_b "fewer states than 8 * executions" true (n < 8 * execs)

let test_reads_see_most_recent () =
  (* A reader that would read a stale value is never scheduled. *)
  let ts =
    Traceset.of_list
      [ [ st 0; w "x" 1 ]; [ st 1; r "x" 0; ext 0 ]; [ st 1; r "x" 1; ext 1 ] ]
  in
  let bs = Explorer.behaviours (Traceset_system.make ts) in
  check_b "can read 0 before write" true (Behaviour.Set.mem [ 0 ] bs);
  check_b "can read 1 after write" true (Behaviour.Set.mem [ 1 ] bs);
  let execs = Explorer.maximal_executions (Traceset_system.make ts) in
  check_b "every execution SC" true
    (List.for_all Interleaving.is_sequentially_consistent execs)

(* Per-program stats are internally consistent: a connected exploration
   visits at least one state, traverses at least [states - 1] edges
   (spanning tree), never answers more memo hits than visits it made,
   and the DFS stack is never deeper than the number of states. *)
let test_stats_consistent () =
  List.iter
    (fun p ->
      let s = Explorer.create_stats () in
      let n = Interp.count_states ~stats:s p in
      check "count matches stats" true (n = s.Explorer.states);
      check "at least one state" true (s.Explorer.states >= 1);
      check "spanning edges" true (s.Explorer.edges >= s.Explorer.states - 1);
      check "frontier bounded by states" true
        (s.Explorer.peak_frontier >= 1
        && s.Explorer.peak_frontier <= s.Explorer.states);
      check "wall time accumulates" true (s.Explorer.wall >= 0.);
      let s' = Explorer.create_stats () in
      let (_ : Behaviour.Set.t) = Interp.behaviours ~stats:s' p in
      check "behaviours visits = count_states visits" true
        (s'.Explorer.states = n);
      check "memo hits bounded by edges" true
        (s'.Explorer.memo_hits <= s'.Explorer.edges))
    (corpus_programs ())

(* Counters are monotone: re-running on the same sink only grows them. *)
let test_stats_monotone () =
  let p = Litmus.program Corpus.sb in
  let s = Explorer.create_stats () in
  let (_ : Behaviour.Set.t) = Explorer.behaviours ~stats:s (full p) in
  let snap =
    Explorer.
      (s.states, s.edges, s.memo_hits, s.por_cuts, s.peak_frontier, s.wall)
  in
  let (_ : Behaviour.Set.t) = Interp.behaviours ~stats:s p in
  let states0, edges0, hits0, cuts0, peak0, wall0 = snap in
  check "states grew" true (s.Explorer.states >= states0);
  check "edges grew" true (s.Explorer.edges >= edges0);
  check "memo hits grew" true (s.Explorer.memo_hits >= hits0);
  check "por cuts grew" true (s.Explorer.por_cuts >= cuts0);
  check "peak kept" true (s.Explorer.peak_frontier >= peak0);
  check "wall grew" true (s.Explorer.wall >= wall0);
  Explorer.reset_stats s;
  check "reset zeroes states" true (s.Explorer.states = 0);
  check "reset zeroes wall" true (s.Explorer.wall = 0.)

(* The reduction actually cuts something on at least one corpus program
   (and never explores more states than the full search). *)
let test_por_cuts () =
  let cuts = ref 0 in
  List.iter
    (fun p ->
      let s = Explorer.create_stats () in
      let reduced = Interp.count_states ~stats:s p in
      check "reduced <= full" true
        (reduced <= Explorer.count_states (full p));
      cuts := !cuts + s.Explorer.por_cuts)
    (corpus_programs ());
  check "POR cut transitions somewhere in the corpus" true (!cuts > 0)

(* Thread-state keys decide which scheduler states are the same: these
   totals grow if a key becomes finer and shrink if it becomes
   coarser. *)
let test_corpus_state_totals () =
  let total count =
    List.fold_left (fun n p -> n + count p) 0 (corpus_programs ())
  in
  Alcotest.(check int) "unreduced states over the corpus" 5126
    (total (fun p -> Explorer.count_states (full p)));
  Alcotest.(check int) "reduced states over the corpus" 4613
    (total Interp.count_states)

(* The acceptance criterion: reduced and unreduced behaviour sets
   coincide on the entire corpus. *)
let test_por_sound_on_corpus () =
  List.iter2
    (fun t p ->
      check
        (Printf.sprintf "POR behaviours equal on %s" t.Litmus.name)
        true
        (Behaviour.Set.equal
           (Explorer.behaviours (full p))
           (Interp.behaviours p)))
    Corpus.all (corpus_programs ())

(* Streaming: taking the first maximal execution must traverse far
   fewer transitions than the whole tree, so a step budget that the
   eager enumeration blows is plenty for an early-exiting consumer. *)
let test_streaming_early_exit () =
  let p = Litmus.program Corpus.sb in
  let budget = 30 in
  (match Interp.maximal_executions ~max_steps:budget p with
  | _ -> Alcotest.fail "eager enumeration should exceed the budget"
  | exception Explorer.Too_many_states _ -> ());
  match Interp.maximal_executions_seq ~max_steps:budget p () with
  | Seq.Cons (first, _) ->
      check "first execution is nonempty" true (first <> [])
  | Seq.Nil -> Alcotest.fail "expected at least one execution"

(* The TSO machine runs on the same engine: its stats flow through the
   graph explorer. *)
let test_graph_stats () =
  let p = Litmus.program Corpus.sb in
  let s = Explorer.create_stats () in
  let (_ : Behaviour.Set.t) =
    Safeopt_model.Memory_model.(behaviours ~stats:s Tso p)
  in
  check "TSO explored states" true (s.Explorer.states > 0);
  check "TSO edges" true (s.Explorer.edges >= s.Explorer.states - 1)

let () =
  Alcotest.run "explorer"
    [
      ( "engine",
        [
          Alcotest.test_case "behaviours" `Quick test_behaviours;
          Alcotest.test_case "maximal executions" `Quick test_executions;
          Alcotest.test_case "execution stats" `Quick test_executions_stats;
          Alcotest.test_case "race search" `Quick test_race_search;
          Alcotest.test_case "locks" `Quick test_locks_block;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock;
          Alcotest.test_case "random sampling" `Quick test_sampling;
          Alcotest.test_case "state budget" `Quick test_budget;
          Alcotest.test_case "count_states" `Quick test_count_states;
          Alcotest.test_case "reads see most recent" `Quick
            test_reads_see_most_recent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "consistent over corpus" `Quick
            test_stats_consistent;
          Alcotest.test_case "monotone and resettable" `Quick
            test_stats_monotone;
          Alcotest.test_case "TSO graph stats" `Quick test_graph_stats;
        ] );
      ( "por",
        [
          Alcotest.test_case "cuts somewhere on corpus" `Quick test_por_cuts;
          Alcotest.test_case "sound on corpus" `Quick test_por_sound_on_corpus;
          Alcotest.test_case "state totals on corpus" `Quick
            test_corpus_state_totals;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "early exit under budget" `Quick
            test_streaming_early_exit;
        ] );
    ]
