(* A memory-model tour: run the classic litmus shapes under SC, TSO and
   PSO, then let the robustness pass infer the volatile annotations
   (fences) that restore sequential consistency on hardware — the DRF
   guarantee as a compilation strategy (paper, sections 1 and 8).

   Run with: dune exec examples/fence_inference.exe *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Safeopt_model

let tour t =
  let p = Litmus.program t in
  let sc = Interp.behaviours p in
  let tso = Memory_model.(behaviours Tso p) in
  let pso = Memory_model.(behaviours Pso p) in
  Fmt.pr "  %-14s SC=%-3d TSO=+%-3d PSO=+%-3d   tso-weak=%-10s pso-weak=%s@."
    t.Litmus.name
    (Behaviour.Set.cardinal sc)
    (Behaviour.Set.cardinal (Behaviour.Set.diff tso sc))
    (Behaviour.Set.cardinal (Behaviour.Set.diff pso sc))
    (Fmt.str "%a" Behaviour.Set.pp (Behaviour.Set.diff tso sc))
    (Fmt.str "%a" Behaviour.Set.pp (Behaviour.Set.diff pso sc))

let () =
  Fmt.pr "== behaviours per memory model ==@.";
  List.iter tour
    [
      Corpus.sb;
      Corpus.mp;
      Corpus.lb;
      Corpus.corr;
      Corpus.iriw;
      Corpus.sb_volatile;
      Corpus.mp_volatile;
    ];

  Fmt.pr "@.== fence inference ==@.";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let p', promoted = Robustness.enforce p in
      Fmt.pr "  %-14s promote { %s }  ->  TSO-robust: %b, PSO-weak: %a@."
        t.Litmus.name
        (String.concat ", " promoted)
        (Robustness.is_robust p')
        Behaviour.Set.pp Memory_model.(weak_behaviours Pso p'))
    [ Corpus.sb; Corpus.mp; Corpus.lb ];

  Fmt.pr "@.== why it works: DRF transports SC to hardware ==@.";
  Fmt.pr
    "  Every TSO/PSO reordering is one of the paper's safe transformations@.";
  Fmt.pr
    "  (R-WR, R-WW, E-RAW); safe transformations cannot change the@.";
  Fmt.pr
    "  behaviours of DRF programs (Theorems 1-2) — so making the program@.";
  Fmt.pr "  DRF makes the hardware invisible.@.";

  Fmt.pr "@.== sampling vs exhaustive (large-program escape hatch) ==@.";
  let p = Litmus.program Corpus.iriw in
  let exact = Interp.behaviours p in
  List.iter
    (fun runs ->
      let sampled = Interp.sample_behaviours ~seed:11 ~runs p in
      Fmt.pr "  %4d runs: %d/%d behaviours found@." runs
        (Behaviour.Set.cardinal sampled)
        (Behaviour.Set.cardinal exact))
    [ 10; 100; 1000 ]
