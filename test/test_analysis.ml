(* The static analysis layer: CFG construction, the dataflow fixpoint,
   locksets, and the static race detector — including the empirical
   soundness property static-DRF => exhaustive-DRF over generated
   programs. *)

open Safeopt_trace
open Safeopt_lang
open Safeopt_analysis
open Helpers

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- cfg -------------------------------------------------------------- *)

let cfg_of src = Cfg.of_thread (List.hd (parse src).Ast.threads)

let count_instr p g =
  List.length (List.filter (fun e -> p e.Cfg.instr) g.Cfg.edges)

let test_cfg_straightline () =
  let g = cfg_of "thread { x := r1; r2 := y; skip; }" in
  check_i "three edges" 3 (List.length g.Cfg.edges);
  check_i "one store" 1
    (count_instr (function Cfg.Store _ -> true | _ -> false) g);
  check_i "one load" 1
    (count_instr (function Cfg.Load _ -> true | _ -> false) g);
  (* edges form a chain from entry to exit *)
  let succs = Cfg.succs g in
  check_i "entry out-degree" 1 (List.length succs.(g.Cfg.entry));
  check_i "exit out-degree" 0 (List.length succs.(g.Cfg.exit_node))

let test_cfg_if () =
  let g = cfg_of "thread { if (r1 == 0) { x := r1; } else { y := r1; } }" in
  check_i "two assume edges" 2
    (count_instr (function Cfg.Assume _ -> true | _ -> false) g);
  check_i "two stores" 2
    (count_instr (function Cfg.Store _ -> true | _ -> false) g);
  (* both branches rejoin: exit reachable from entry on both paths *)
  let preds = Cfg.preds g in
  check_i "join in-degree" 2 (List.length preds.(g.Cfg.exit_node))

let test_cfg_while () =
  let g = cfg_of "thread { while (r1 != 1) { r1 := x; } }" in
  check_i "assume true+false" 2
    (count_instr (function Cfg.Assume _ -> true | _ -> false) g);
  (* the loop body feeds back: some node has in-degree 2 (header) *)
  let preds = Cfg.preds g in
  let has_header =
    Array.exists (fun es -> List.length es >= 2) preds
  in
  check_b "loop header has two predecessors" true has_header

let test_cfg_paths () =
  let g = cfg_of "thread { x := r1; if (r2 == 0) { y := r1; } else { skip; } }" in
  let store_paths =
    List.filter_map
      (fun e ->
        match e.Cfg.instr with Cfg.Store _ -> Some e.Cfg.path | _ -> None)
      g.Cfg.edges
  in
  (* the parser wraps branches in a Block, hence the extra 0 *)
  Alcotest.(check (list (list int)))
    "paths locate statements" [ [ 0 ]; [ 1; 0; 0 ] ] store_paths

(* --- dataflow --------------------------------------------------------- *)

(* Reaching-monitors as a may-analysis instance: exercises the functor
   with union, the dual of the lockset instance. *)
module May = Dataflow.Make (struct
  type t = Monitor.Set.t

  let equal = Monitor.Set.equal
  let join = Monitor.Set.union

  let pp ppf s =
    Fmt.(braces (list ~sep:comma Monitor.pp)) ppf (Monitor.Set.elements s)
end)

let may_transfer (e : Cfg.edge) held =
  match e.Cfg.instr with
  | Cfg.Lock m -> Monitor.Set.add m held
  | _ -> held

let test_dataflow_fixpoint () =
  (* in a loop alternating lock/unlock, must-held at exit is empty but
     may-locked is {m} *)
  let g = cfg_of "thread { while (r1 != 1) { lock m; r1 := x; unlock m; } }" in
  let must = Lockset.held_at g in
  let may = May.forward g ~init:Monitor.Set.empty ~transfer:may_transfer in
  (match must.(g.Cfg.exit_node) with
  | Some s -> check_b "must-held at exit empty" true (Monitor.Set.is_empty s)
  | None -> Alcotest.fail "exit unreachable");
  match may.(g.Cfg.exit_node) with
  | Some s -> check_b "may-locked at exit = {m}" true (Monitor.Set.mem "m" s)
  | None -> Alcotest.fail "exit unreachable"

let test_dataflow_backward () =
  (* backward from exit: nodes after an infinite-loop-free chain all
     reach the exit *)
  let g = cfg_of "thread { x := r1; y := r1; }" in
  let back =
    May.backward g ~init:Monitor.Set.empty ~transfer:(fun _ s -> s)
  in
  check_b "entry reaches exit backwards" true (back.(g.Cfg.entry) <> None)

(* --- locksets --------------------------------------------------------- *)

let test_lockset_basic () =
  let p = parse "thread { lock m; x := r1; unlock m; r2 := y; }" in
  let accs = Lockset.program_accesses p in
  check_i "two accesses" 2 (List.length accs);
  let by_loc l = List.find (fun a -> Location.equal a.Lockset.loc l) accs in
  check_b "x under m" true (Monitor.Set.mem "m" (by_loc "x").Lockset.locked);
  check_b "y unprotected" true
    (Monitor.Set.is_empty (by_loc "y").Lockset.locked)

let test_lockset_branch_meet () =
  (* lock only on one branch: the join point must drop it *)
  let p =
    parse
      "thread { if (r1 == 0) { lock m; skip; } else { skip; } x := r1; }"
  in
  let accs = Lockset.program_accesses p in
  let x = List.find (fun a -> Location.equal a.Lockset.loc "x") accs in
  check_b "lockset is intersection over paths" true
    (Monitor.Set.is_empty x.Lockset.locked)

let test_lockset_nested () =
  let p = parse "thread { lock m; lock n; x := r1; unlock n; y := r1; unlock m; }" in
  let accs = Lockset.program_accesses p in
  let by_loc l = List.find (fun a -> Location.equal a.Lockset.loc l) accs in
  check_i "x under both" 2 (Monitor.Set.cardinal (by_loc "x").Lockset.locked);
  check_b "y under m only" true
    (Monitor.Set.equal (Monitor.Set.singleton "m") (by_loc "y").Lockset.locked)

let test_summaries () =
  let p = parse "thread { x := r1; r2 := y; }\nthread { r3 := x; }" in
  match Lockset.summarise p with
  | [ s0; s1 ] ->
      check_b "t0 writes x" true (Location.Set.mem "x" s0.Lockset.writes);
      check_b "t0 reads y" true (Location.Set.mem "y" s0.Lockset.reads);
      check_b "t1 reads x" true (Location.Set.mem "x" s1.Lockset.reads);
      check_b "t1 writes nothing" true (Location.Set.is_empty s1.Lockset.writes)
  | _ -> Alcotest.fail "expected two summaries"

let test_source_window () =
  let p = parse "thread { lock m; x := r1; unlock m; }" in
  let accs = Lockset.program_accesses p in
  let a = List.hd accs in
  let win = Lockset.source_window (List.hd p.Ast.threads) a.Lockset.path in
  check_b "window marks the access" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '>') win);
  check_b "window shows context" true
    (List.exists (fun l -> contains_substring l "lock m") win)

(* --- static race detection ------------------------------------------- *)

let test_locked_counter_certified () =
  let p =
    parse
      "thread { lock m; r1 := c; c := r1; unlock m; }\n\
       thread { lock m; r2 := c; c := r2; unlock m; }"
  in
  check_b "lock-protected counter certified" true (Static_race.certified_drf p)

let test_store_store_race () =
  let p = parse "thread { x := r1; }\nthread { x := r2; }" in
  let r = Static_race.analyse p in
  check_i "one race pair" 1 (List.length r.Static_race.races);
  let pr = List.hd r.Static_race.races in
  check_b "pair on x" true
    (Location.equal pr.Static_race.fst_access.Lockset.loc "x");
  check_b "cross-thread" false
    (Thread_id.equal pr.Static_race.fst_access.Lockset.tid
       pr.Static_race.snd_access.Lockset.tid)

let test_race_pairs_deduped_oriented () =
  (* many conflicting accesses across three threads: each unordered
     pair reported exactly once (never both (a,b) and (b,a)), oriented
     with the earlier source window first, in source order *)
  let p =
    parse
      "thread { x := r1; r2 := x; }\n\
       thread { x := r3; }\n\
       thread { r4 := x; x := r5; }"
  in
  let r = Static_race.analyse p in
  let key (a : Lockset.access) = (a.Lockset.tid, a.Lockset.site) in
  let pkey pr =
    (key pr.Static_race.fst_access, key pr.Static_race.snd_access)
  in
  let keys = List.map pkey r.Static_race.races in
  check_i "seven candidate pairs" 7 (List.length keys);
  check_i "no duplicate pairs" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  check_b "no pair reported in both orientations" true
    (List.for_all (fun (a, b) -> not (List.mem (b, a) keys)) keys);
  check_b "earlier source window first in every pair" true
    (List.for_all (fun (a, b) -> a < b) keys);
  check_b "pairs sorted in source order" true
    (List.sort compare keys = keys)

let test_volatile_only_certified () =
  let p =
    parse "volatile v;\nthread { v := r1; }\nthread { r2 := v; v := r2; }"
  in
  check_b "volatile-only program certified" true (Static_race.certified_drf p)

let test_read_read_not_race () =
  let p = parse "thread { r1 := x; }\nthread { r2 := x; }" in
  check_b "read/read never races" true (Static_race.certified_drf p)

let test_disjoint_locations_certified () =
  let p = parse "thread { x := r1; }\nthread { y := r2; }" in
  check_b "disjoint locations certified" true (Static_race.certified_drf p)

let test_different_locks_race () =
  let p =
    parse
      "thread { lock m; x := r1; unlock m; }\n\
       thread { lock n; x := r2; unlock n; }"
  in
  check_b "different locks do not protect" false (Static_race.certified_drf p)

let test_loop_certified_without_enumeration () =
  (* an unbounded loop: exhaustive enumeration would need fuel, the
     static certificate does not *)
  let p =
    parse
      "thread { while (r1 == 0) { lock m; r1 := x; x := r1; unlock m; } }\n\
       thread { lock m; x := r2; unlock m; }"
  in
  check_b "looping program certified" true (Static_race.certified_drf p)

(* --- fast path in Validate -------------------------------------------- *)

let test_validate_fast_path () =
  let p =
    parse
      "thread { lock m; c := r1; unlock m; }\nthread { lock m; r2 := c; unlock m; }"
  in
  check_b "find_race_fast finds nothing" true
    (Safeopt_opt.Validate.find_race_fast p = None);
  let racy = parse "thread { x := r1; }\nthread { x := r2; }" in
  check_b "fallback still finds the race" true
    (Safeopt_opt.Validate.find_race_fast racy <> None)

(* --- QCheck soundness ------------------------------------------------- *)

let rand () = Random.State.make [| 0x5afe0; 43 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

(* Static certification is sound: a certificate implies the exhaustive
   interleaving enumeration finds no race. *)
let static_drf_sound =
  to_alcotest
    (QCheck2.Test.make ~name:"static DRF => exhaustive DRF" ~count:500
       ~print:Safeopt_gen.Generators.print_program
       Safeopt_gen.Generators.program (fun p ->
         (not (Static_race.certified_drf p))
         || Interp.is_drf ~max_states:500_000 p))

(* Completeness of the report: every exhaustively-found race is covered
   by some reported static pair (same location, same unordered thread
   pair). *)
let races_covered =
  to_alcotest
    (QCheck2.Test.make ~name:"exhaustive races covered by static pairs"
       ~count:300 ~print:Safeopt_gen.Generators.print_program
       Safeopt_gen.Generators.program (fun p ->
         match Interp.find_race ~max_states:500_000 p with
         | None -> true
         | Some i ->
             let arr = Array.of_list i in
             let n = Array.length arr in
             let a = arr.(n - 2) and b = arr.(n - 1) in
             let loc =
               match Action.location a.Safeopt_exec.Interleaving.action with
               | Some l -> l
               | None -> Alcotest.fail "racy witness without a location"
             in
             let tids =
               [ a.Safeopt_exec.Interleaving.tid;
                 b.Safeopt_exec.Interleaving.tid ]
               |> List.sort Thread_id.compare
             in
             List.exists
               (fun pr ->
                 Location.equal pr.Static_race.fst_access.Lockset.loc loc
                 && List.sort Thread_id.compare
                      [ pr.Static_race.fst_access.Lockset.tid;
                        pr.Static_race.snd_access.Lockset.tid ]
                    = tids)
               (Static_race.analyse p).Static_race.races))

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick test_cfg_straightline;
          Alcotest.test_case "if forks and rejoins" `Quick test_cfg_if;
          Alcotest.test_case "while loops back" `Quick test_cfg_while;
          Alcotest.test_case "edge paths" `Quick test_cfg_paths;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "must vs may fixpoints" `Quick
            test_dataflow_fixpoint;
          Alcotest.test_case "backward direction" `Quick test_dataflow_backward;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "basic locksets" `Quick test_lockset_basic;
          Alcotest.test_case "branch meet" `Quick test_lockset_branch_meet;
          Alcotest.test_case "nested monitors" `Quick test_lockset_nested;
          Alcotest.test_case "may-access summaries" `Quick test_summaries;
          Alcotest.test_case "source window" `Quick test_source_window;
        ] );
      ( "static-race",
        [
          Alcotest.test_case "locked counter certified" `Quick
            test_locked_counter_certified;
          Alcotest.test_case "store/store race reported" `Quick
            test_store_store_race;
          Alcotest.test_case "race pairs deduped and oriented" `Quick
            test_race_pairs_deduped_oriented;
          Alcotest.test_case "volatile-only certified" `Quick
            test_volatile_only_certified;
          Alcotest.test_case "read/read no race" `Quick test_read_read_not_race;
          Alcotest.test_case "disjoint locations" `Quick
            test_disjoint_locations_certified;
          Alcotest.test_case "different locks race" `Quick
            test_different_locks_race;
          Alcotest.test_case "loop certified without enumeration" `Quick
            test_loop_certified_without_enumeration;
          Alcotest.test_case "Validate fast path" `Quick test_validate_fast_path;
        ] );
      ("soundness", [ static_drf_sound; races_covered ]);
    ]
