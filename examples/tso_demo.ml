(* The section-8 outlook, executable: a store-buffer TSO machine runs
   the classic litmus shapes, and every weak behaviour it exhibits is
   reproduced under SC by a program reachable through the paper's
   transformations (write-read reordering R-WR + store-to-load
   forwarding E-RAW).

   Run with: dune exec examples/tso_demo.exe *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
module Model = Safeopt_model.Memory_model

let check name p =
  let weak = Model.weak_behaviours Model.Tso p in
  let explained =
    Portability.explained_by_transformations ~weak Model.Tso p
  in
  Fmt.pr "  %-16s weak=%a explained-by-transformations=%b@." name
    Behaviour.Set.pp weak explained

let () =
  Fmt.pr "== TSO weak behaviours and their transformation explanations ==@.";
  List.iter
    (fun t -> check t.Litmus.name (Litmus.program t))
    [
      Corpus.sb;
      Corpus.lb;
      Corpus.mp;
      Corpus.mp_volatile;
      Corpus.mp_locked;
      Corpus.corr;
      Corpus.fig2_original;
      Corpus.dekker_volatile;
    ];
  Fmt.pr "@.== DRF programs have no weak behaviours (Theorem 2 + sec. 8) ==@.";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let weak = Model.weak_behaviours Model.Tso p in
      Fmt.pr "  %-16s drf=%b weak=%a@." t.Litmus.name (Interp.is_drf p)
        Behaviour.Set.pp weak)
    [ Corpus.fig3_a; Corpus.mp_volatile; Corpus.mp_locked; Corpus.intro_volatile ]
