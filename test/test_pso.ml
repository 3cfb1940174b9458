open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
open Helpers
module Model = Safeopt_model.Memory_model

let check_b = Alcotest.(check bool)

let test_mp_weak () =
  (* PSO's signature weakness: message passing breaks (the data write
     may drain after the flag write) *)
  let mp = Litmus.program Corpus.mp in
  Alcotest.check behaviour_set "mp weak under PSO"
    (behaviours_of_list [ [ 0 ] ])
    (Model.weak_behaviours Model.Pso mp);
  (* and this is strictly beyond TSO *)
  Alcotest.check behaviour_set "beyond TSO"
    (behaviours_of_list [ [ 0 ] ])
    (Model.weak_behaviours ~than:Model.Tso Model.Pso mp)

let test_sb_weak () =
  let sb = Litmus.program Corpus.sb in
  check_b "sb weak like TSO" true
    (Behaviour.Set.mem [ 0; 0 ] (Model.weak_behaviours Model.Pso sb));
  check_b "sb adds nothing beyond TSO" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours ~than:Model.Tso Model.Pso sb))

let test_inclusions () =
  (* SC <= TSO <= PSO on a sample of corpus programs *)
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let sc = Interp.behaviours p in
      let tso = Model.behaviours Model.Tso p in
      let pso = Model.behaviours Model.Pso p in
      check_b (t.Litmus.name ^ ": SC in TSO") true (Behaviour.Set.subset sc tso);
      check_b (t.Litmus.name ^ ": TSO in PSO") true
        (Behaviour.Set.subset tso pso))
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.fig2_original ]

let test_per_location_fifo () =
  (* same-location writes stay ordered (coherence preserved) *)
  let p = Litmus.program Corpus.co_ww_rr in
  let pso = Model.behaviours Model.Pso p in
  check_b "no out-of-order same-location drain" false
    (Behaviour.Set.mem [ 8 ] pso)

let test_fences () =
  check_b "volatile mp not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Pso (Litmus.program Corpus.mp_volatile)));
  check_b "locked mp not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Pso (Litmus.program Corpus.mp_locked)));
  check_b "volatile sb not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Pso (Litmus.program Corpus.sb_volatile)))

let test_rmw_flushes_buffers () =
  (* an RMW waits until every per-location buffer of its thread has
     drained, so even PSO (which breaks plain MP) keeps MP with an
     xchg-published flag: the data write is in memory before the flag
     update is *)
  let p =
    parse
      "thread { data := 1; r0 := xchg(flag, 1); }\n\
       thread { r1 := flag; if (r1 == 1) { r2 := data; print r2; } }"
  in
  check_b "xchg-published mp not weak" true
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Pso p));
  check_b "sb-with-xchg not weak" true
    (Behaviour.Set.is_empty
       (Model.weak_behaviours Model.Pso (Litmus.program Corpus.atomic_sb_xchg)))

let test_drf_no_weakness () =
  List.iter
    (fun t ->
      if t.Litmus.drf then
        let p = Litmus.program t in
        let weak = Model.weak_behaviours Model.Pso p in
        if not (Behaviour.Set.is_empty weak) then
          Alcotest.failf "%s: DRF program PSO-weak: %a" t.Litmus.name
            Behaviour.Set.pp weak)
    Corpus.all

let test_explained () =
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let ok = Portability.explained_by_transformations Model.Pso p in
      if not ok then
        Alcotest.failf "%s: PSO behaviours not explained" t.Litmus.name)
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr ]

let () =
  Alcotest.run "pso"
    [
      ( "pso",
        [
          Alcotest.test_case "MP weakness" `Quick test_mp_weak;
          Alcotest.test_case "SB weakness" `Quick test_sb_weak;
          Alcotest.test_case "SC <= TSO <= PSO" `Quick test_inclusions;
          Alcotest.test_case "per-location FIFO" `Quick test_per_location_fifo;
          Alcotest.test_case "fences" `Quick test_fences;
          Alcotest.test_case "RMWs flush the buffers" `Quick
            test_rmw_flushes_buffers;
          Alcotest.test_case "DRF implies no weakness" `Slow
            test_drf_no_weakness;
          Alcotest.test_case "explained by transformations" `Slow
            test_explained;
        ] );
    ]
