(* Atomic read-modify-writes end to end: the ticket lock.

   cas/faa/xchg parse to a single [Ast.Atomic] statement, execute as
   one [U[l:r→w]] action (read and write with nothing in between), and
   synchronise like a volatile access — acquire and release at once.
   That is exactly what a ticket lock needs: [faa next] hands out
   tickets, the spin on [serving] is a volatile read, and the release
   [faa serving] publishes the critical section.

   Run with: dune exec examples/atomics.exe *)

open Safeopt

let source =
  {|
volatile serving;
thread {
  r1 := faa(next, 1);
  r2 := serving;
  while (r2 != r1) r2 := serving;
  x := 1;
  r3 := x;
  print r3;
  r4 := faa(serving, 1);
}
thread {
  r5 := faa(next, 1);
  r6 := serving;
  while (r6 != r5) r6 := serving;
  x := 2;
  r7 := x;
  print r7;
  r8 := faa(serving, 1);
}
|}

let () =
  let p = Parser.parse_program source in
  Fmt.pr "--- the ticket lock ---@.%a@." Pp.program p;

  (* Each faa returns the old counter value, so the two threads draw
     distinct tickets and the plain accesses to x never race: the DRF
     check needs no lock and no volatile annotation on x. *)
  Fmt.pr "data race free: %b@." (Interp.is_drf p);
  Fmt.pr "SC behaviours:  %s@."
    (String.concat " | " (Interp.behaviour_strings (Interp.behaviours p)));

  (* Mutual exclusion as behaviours: both critical sections run, in
     either order, but never interleaved — no [1;1] or [2;2]. *)
  let b = Interp.behaviours p in
  assert (Behaviour.Set.mem [ 1; 2 ] b);
  assert (Behaviour.Set.mem [ 2; 1 ] b);
  assert (not (Behaviour.Set.mem [ 1; 1 ] b));
  assert (not (Behaviour.Set.mem [ 2; 2 ] b));
  Fmt.pr "mutual exclusion holds: both orders, never interleaved@.";

  (* Under TSO/PSO the RMWs flush the store buffers (x86 LOCK prefix),
     so the lock works unfenced on relaxed hardware too. *)
  Fmt.pr "TSO-weak behaviours: %s@."
    (let w = Memory_model.(weak_behaviours Tso p) in
     if Behaviour.Set.is_empty w then "none"
     else Fmt.str "%a" Behaviour.Set.pp w);

  (* The optimiser keeps its hands off the atomics — every pass is
     conservative around [Atomic] — and the auto validator ladder
     escalates the atomic threads from the refine rung (whose value
     universe is not closed under updates) to the exhaustive one. *)
  let spec =
    match Pipeline.parse "constprop;copyprop;cse*;dead-moves;dse;normalise"
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let q = (Pipeline.run spec p).Pipeline.final in
  let o = Validate.run_validator Validate.Auto ~original:p ~transformed:q () in
  Fmt.pr "optimised and validated: %s (decided by %s)@."
    (if Validate.outcome_ok o then "ok" else "REJECTED")
    (Validate.method_tag o);
  assert (Validate.outcome_ok o);
  Fmt.pr "@.ticket lock: checked.@."
