open Safeopt_lang
open Helpers

let check_b = Alcotest.(check bool)

let conf stmts = Semantics.initial stmts

let rec drive c n =
  (* follow [n] visible steps, reads get value 9 *)
  if n = 0 then Semantics.next c
  else
    match Semantics.next c with
    | Semantics.Write (_, _, c')
    | Semantics.Lock (_, c')
    | Semantics.Unlock (_, c')
    | Semantics.Output (_, c') ->
        drive c' (n - 1)
    | Semantics.Read (_, k) -> drive (k 9) (n - 1)
    | o -> o

let test_write () =
  match Semantics.next (conf [ Ast.Move ("r", Ast.Nat 5); Ast.Store ("x", "r") ]) with
  | Semantics.Write ("x", 5, _) -> ()
  | _ -> Alcotest.fail "expected W[x=5]"

let test_read_binds () =
  match
    Semantics.next (conf [ Ast.Load ("r", "x"); Ast.Print "r" ])
  with
  | Semantics.Read ("x", k) -> (
      match Semantics.next (k 7) with
      | Semantics.Output (7, _) -> ()
      | _ -> Alcotest.fail "print should see the read value")
  | _ -> Alcotest.fail "expected a read"

let test_default_register () =
  (* registers are zero-initialised *)
  match Semantics.next (conf [ Ast.Print "r9" ]) with
  | Semantics.Output (0, _) -> ()
  | _ -> Alcotest.fail "expected X(0)"

let test_lock_unlock () =
  match drive (conf [ Ast.Lock "m"; Ast.Unlock "m" ]) 1 with
  | Semantics.Unlock ("m", c') ->
      check_b "done after" true (Semantics.next c' = Semantics.Done)
  | _ -> Alcotest.fail "expected U[m]"

let test_eulk_silent () =
  (* E-ULK: unlocking an un-held monitor is silent *)
  match Semantics.next (conf [ Ast.Unlock "m"; Ast.Print "r" ]) with
  | Semantics.Output (0, _) -> ()
  | _ -> Alcotest.fail "unheld unlock should be silent"

let test_nested_locks () =
  let c = conf [ Ast.Lock "m"; Ast.Lock "m"; Ast.Unlock "m"; Ast.Unlock "m" ] in
  match drive c 3 with
  | Semantics.Unlock ("m", _) -> ()
  | _ -> Alcotest.fail "nested unlock should emit"

let test_conditionals () =
  let p t = [ Ast.If (t, Ast.Print "r1", Ast.Store ("x", "r1")) ] in
  (match Semantics.next (conf (p (Ast.Eq (Ast.Nat 1, Ast.Nat 1)))) with
  | Semantics.Output _ -> ()
  | _ -> Alcotest.fail "true branch");
  (match Semantics.next (conf (p (Ast.Ne (Ast.Nat 1, Ast.Nat 1)))) with
  | Semantics.Write _ -> ()
  | _ -> Alcotest.fail "false branch");
  (* Val on registers *)
  let c =
    conf [ Ast.Move ("r1", Ast.Nat 2); Ast.If (Ast.Eq (Ast.Reg "r1", Ast.Nat 2), Ast.Print "r1", Ast.Skip) ]
  in
  match Semantics.next c with
  | Semantics.Output (2, _) -> ()
  | _ -> Alcotest.fail "register compare"

let test_loop () =
  (* while unrolls; countdown via r == 0 test on a register set by reads *)
  let body = Ast.While (Ast.Ne (Ast.Reg "r", Ast.Nat 1), Ast.Load ("r", "x")) in
  let c = conf [ body; Ast.Print "r" ] in
  (* read 0 twice, then 1, then loop exits *)
  match Semantics.next c with
  | Semantics.Read ("x", k) -> (
      match Semantics.next (k 0) with
      | Semantics.Read ("x", k2) -> (
          match Semantics.next (k2 1) with
          | Semantics.Output (1, _) -> ()
          | _ -> Alcotest.fail "loop should exit after reading 1")
      | _ -> Alcotest.fail "loop should re-read")
  | _ -> Alcotest.fail "loop should read"

let test_divergence () =
  let spin = [ Ast.While (Ast.Eq (Ast.Nat 0, Ast.Nat 0), Ast.Skip) ] in
  check_b "silent spin diverges" true
    (Semantics.next ~tau_fuel:1000 (conf spin) = Semantics.Diverged)

let test_blocks () =
  let c = conf [ Ast.Block [ Ast.Skip; Ast.Block [ Ast.Print "r" ] ]; Ast.Store ("x", "r") ] in
  match Semantics.next c with
  | Semantics.Output (0, c') -> (
      match Semantics.next c' with
      | Semantics.Write ("x", 0, _) -> ()
      | _ -> Alcotest.fail "after block")
  | _ -> Alcotest.fail "block flattening"

let test_issues () =
  let c () = conf (Parser.parse_thread "r1 := x; y := r1; print r1;") in
  check_b "full trace" true
    (Semantics.issues (c ()) [ r "x" 3; w "y" 3; ext 3 ]);
  check_b "prefix" true (Semantics.issues (c ()) [ r "x" 3 ]);
  check_b "empty" true (Semantics.issues (c ()) []);
  check_b "wrong write value" false
    (Semantics.issues (c ()) [ r "x" 3; w "y" 4 ]);
  check_b "wrong action kind" false (Semantics.issues (c ()) [ w "y" 0 ]);
  check_b "too long" false
    (Semantics.issues (c ()) [ r "x" 3; w "y" 3; ext 3; ext 3 ])

let test_run_sequential () =
  let mem = Hashtbl.create 7 in
  let read l = Option.value ~default:0 (Hashtbl.find_opt mem l) in
  let write l v = Hashtbl.replace mem l v in
  let t =
    Semantics.run_sequential
      (conf (Parser.parse_thread "x := 4; r1 := x; y := r1; print r1;"))
      ~read ~write
  in
  Alcotest.check trace "sequential trace"
    [ w "x" 4; r "x" 4; w "y" 4; ext 4 ]
    (* desugaring inserts a Move which is silent *)
    t;
  Alcotest.(check int) "memory updated" 4 (read "y")

let test_config_key () =
  let key = Semantics.config_key in
  let c1 = conf [ Ast.Print "r" ] and c2 = conf [ Ast.Print "r" ] in
  Alcotest.(check string) "equal configs equal keys" (key c1) (key c2);
  check_b "different code different keys" true
    (key (conf [ Ast.Skip ]) <> key (conf [ Ast.Print "r" ]));
  (* The key depends on the bindings, not on how the maps were built:
     binding r1..r4 in ascending and in descending order gives trees of
     different shapes. *)
  let bind order =
    List.fold_left
      (fun (c : Semantics.config) (r, v) ->
        { c with regs = Reg.Map.add r v c.regs })
      (conf [ Ast.Skip ]) order
  in
  let regs = [ ("r1", 1); ("r2", 2); ("r3", 3); ("r4", 4) ] in
  let up = bind regs and down = bind (List.rev regs) in
  check_b "the two register maps have different shapes" true
    (Marshal.to_string up.regs [] <> Marshal.to_string down.regs []);
  Alcotest.(check string) "register binding order" (key up) (key down);
  (* A register or monitor at 0 is the same as an absent one. *)
  let base = conf [ Ast.Skip ] in
  Alcotest.(check string) "register at 0" (key base)
    (key { base with regs = Reg.Map.singleton "r1" 0 });
  Alcotest.(check string) "monitor at 0" (key base)
    (key { base with mons = Safeopt_trace.Monitor.Map.singleton "m" 0 });
  check_b "register at 1 differs" true
    (key base <> key { base with regs = Reg.Map.singleton "r1" 1 });
  check_b "monitor at 1 differs" true
    (key base
    <> key { base with mons = Safeopt_trace.Monitor.Map.singleton "m" 1 })

let () =
  Alcotest.run "semantics"
    [
      ( "small-step",
        [
          Alcotest.test_case "write" `Quick test_write;
          Alcotest.test_case "read binds" `Quick test_read_binds;
          Alcotest.test_case "default register" `Quick test_default_register;
          Alcotest.test_case "lock/unlock" `Quick test_lock_unlock;
          Alcotest.test_case "E-ULK silent" `Quick test_eulk_silent;
          Alcotest.test_case "nested locks" `Quick test_nested_locks;
          Alcotest.test_case "conditionals" `Quick test_conditionals;
          Alcotest.test_case "loops" `Quick test_loop;
          Alcotest.test_case "divergence" `Quick test_divergence;
          Alcotest.test_case "blocks" `Quick test_blocks;
        ] );
      ( "multi-step",
        [
          Alcotest.test_case "issues" `Quick test_issues;
          Alcotest.test_case "run_sequential" `Quick test_run_sequential;
          Alcotest.test_case "config keys" `Quick test_config_key;
        ] );
    ]
