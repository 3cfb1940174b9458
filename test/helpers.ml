(* Shared test vocabulary: action shorthands, testables, and common
   fixtures. *)

open Safeopt_trace

(* Action shorthands in paper notation. *)
let r l v = Action.Read (l, v)
let w l v = Action.Write (l, v)
let lk m = Action.Lock m
let ul m = Action.Unlock m
let ext v = Action.External v
let st t = Action.Start t

(* Wildcard shorthands. *)
let c a = Wildcard.Concrete a
let wild l = Wildcard.Wild_read l

let none = Location.Volatile.none
let vol_v = Location.Volatile.of_list [ "v" ]

(* Alcotest testables. *)
let action = Alcotest.testable Action.pp Action.equal
let trace = Alcotest.testable Trace.pp Trace.equal
let wildcard = Alcotest.testable Wildcard.pp Wildcard.equal

let traceset =
  Alcotest.testable Traceset.pp Traceset.equal

let behaviour =
  Alcotest.testable Safeopt_exec.Behaviour.pp Safeopt_exec.Behaviour.equal

let behaviour_set =
  Alcotest.testable Safeopt_exec.Behaviour.Set.pp
    Safeopt_exec.Behaviour.Set.equal

let interleaving =
  Alcotest.testable Safeopt_exec.Interleaving.pp
    Safeopt_exec.Interleaving.equal

let program =
  Alcotest.testable Safeopt_lang.Pp.program Safeopt_lang.Ast.equal_program

(* Interleaving builder: [(tid, action); ...]. *)
let il pairs =
  List.map (fun (t, a) -> Safeopt_exec.Interleaving.pair t a) pairs

let parse = Safeopt_lang.Parser.parse_program

(* A program's thread system with no local action: the explorer then
   searches the full state graph, the reference for its reduced
   searches. *)
let full p =
  {
    (Safeopt_lang.Thread_system.make p) with
    Safeopt_exec.System.local = (fun _ -> false);
  }

let behaviours_of_list l =
  List.fold_left
    (fun acc b -> Safeopt_exec.Behaviour.Set.add b acc)
    Safeopt_exec.Behaviour.Set.empty l

(* The Fig. 2 tracesets from section 4, explicit over {0,1}. *)
let fig2_original_traceset =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         [ [ st 0; r "x" v; w "y" v ]; [ st 1; r "y" v; w "x" 1; ext v ] ])
       [ 0; 1 ])

let fig2_transformed_traceset =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         [ [ st 0; r "x" v; w "y" v ]; [ st 1; w "x" 1; r "y" v; ext v ] ])
       [ 0; 1 ])

(* Substring search for output checks. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
