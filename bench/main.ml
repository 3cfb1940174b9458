(* The benchmark harness regenerates every figure, table and in-text
   example of the paper (the reproduction report, experiment ids E1-E12
   of DESIGN.md), then times each experiment's workload with Bechamel
   (performance series P1).

   Run with: dune exec bench/main.exe *)

open Safeopt_trace
open Safeopt_exec
open Safeopt_lang
open Safeopt_litmus
module Obs = Safeopt_obs
module Clock = Obs.Clock
module Json = Obs.Json
module Model = Safeopt_model.Memory_model

let vol0 = Location.Volatile.none

(* A program's thread system with no local action: the explorer then
   searches the full state graph, the unreduced side of the POR rows
   and of the refine sweep's budget claim. *)
let full p = { (Thread_system.make p) with System.local = (fun _ -> false) }

(* Every broken claim is counted, and every mode exits 1 on any.  A
   section's header starts its claim list: a mode's BENCH file carries
   the claims printed since its header. *)
let mismatches = ref 0
let claims = ref []

let hr fmt =
  claims := [];
  Fmt.pr "@.=== %s ===@." (Fmt.str fmt)

let claim name ok =
  if not ok then incr mismatches;
  claims := (name, Json.Bool ok) :: !claims;
  Fmt.pr "  %-58s %s@." name (if ok then "OK" else "MISMATCH")

let exit_on_mismatch () =
  if !mismatches > 0 then begin
    Fmt.epr "bench: %d claim(s) MISMATCH@." !mismatches;
    exit 1
  end

let behaviours_str p =
  String.concat " | " (Interp.behaviour_strings (Interp.behaviours p))

(* ------------------------------------------------------------------ *)
(* E1: the section-1 motivating example                                *)
(* ------------------------------------------------------------------ *)

let e1 () =
  hr "E1: section 1 intro example (constant propagation)";
  let orig = Litmus.program Corpus.intro_racy in
  let opt = Litmus.program Corpus.intro_racy_opt in
  let volp = Litmus.program Corpus.intro_volatile in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  optimised behaviours:   %s@." (behaviours_str opt);
  Fmt.pr "  volatile behaviours:    %s@." (behaviours_str volp);
  claim "original cannot print 1" (not (Interp.can_output orig 1));
  claim "optimised can print 1" (Interp.can_output opt 1);
  claim "original is racy (flags)" (not (Interp.is_drf orig));
  claim "volatile variant is DRF" (Interp.is_drf volp);
  claim "volatile variant still cannot print 1"
    (not (Interp.can_output volp 1));
  (* the racy rewrite is a legitimate semantic elimination, the
     volatile one is not *)
  let universe = Denote.joint_universe [ orig; opt ] in
  let elim p p' =
    Safeopt_core.Elimination.is_elimination p.Ast.volatile
      ~original:(Denote.traceset ~universe ~max_len:12 p)
      ~universe
      ~transformed:(Denote.traceset ~universe ~max_len:12 p')
  in
  claim "racy rewrite is a semantic elimination" (elim orig opt);
  let vol_opt =
    { opt with Ast.volatile = volp.Ast.volatile }
  in
  claim "same rewrite on the volatile program is NOT an elimination"
    (not (elim volp vol_opt))

(* ------------------------------------------------------------------ *)
(* E2: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  hr "E2: Figure 1 (write and read elimination)";
  let orig = Litmus.program Corpus.fig1_original in
  let trans = Litmus.program Corpus.fig1_transformed in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  transformed behaviours: %s@." (behaviours_str trans);
  claim "original cannot output 1 then 0"
    (not (Behaviour.Set.mem [ 1; 0 ] (Interp.behaviours orig)));
  claim "transformed can output 1 then 0"
    (Behaviour.Set.mem [ 1; 0 ] (Interp.behaviours trans));
  claim "both racy (no DRF guarantee violation)"
    ((not (Interp.is_drf orig)) && not (Interp.is_drf trans));
  let universe = Denote.joint_universe [ orig; trans ] in
  claim "transformed traceset is an elimination of the original"
    (Safeopt_core.Elimination.is_elimination vol0
       ~original:(Denote.traceset ~universe ~max_len:10 orig)
       ~universe
       ~transformed:(Denote.traceset ~universe ~max_len:10 trans))

(* ------------------------------------------------------------------ *)
(* E3: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

let fig2_elim_closure_mem orig_ts universe =
  let memo = Hashtbl.create 97 in
  fun t ->
    let k = Trace.to_string t in
    match Hashtbl.find_opt memo k with
    | Some b -> b
    | None ->
        let b =
          Safeopt_core.Elimination.is_member vol0 ~original:orig_ts ~universe t
        in
        Hashtbl.add memo k b;
        b

let e3 () =
  hr "E3: Figure 2 (read/write reordering)";
  let orig = Litmus.program Corpus.fig2_original in
  let trans = Litmus.program Corpus.fig2_transformed in
  Fmt.pr "  original behaviours:    %s@." (behaviours_str orig);
  Fmt.pr "  transformed behaviours: %s@." (behaviours_str trans);
  claim "original cannot print 1" (not (Interp.can_output orig 1));
  claim "transformed can print 1" (Interp.can_output trans 1);
  let universe = Denote.joint_universe [ orig; trans ] in
  let ts_o = Denote.traceset ~universe ~max_len:8 orig in
  let ts_t = Denote.traceset ~universe ~max_len:8 trans in
  claim "NOT a reordering of the original traceset alone"
    (not (Safeopt_core.Reorder.is_reordering vol0 ~original:ts_o ~transformed:ts_t));
  claim "a reordering of an elimination of the original (sec. 4)"
    (Safeopt_core.Reorder.is_reordering_of_oracle vol0
       ~mem:(fig2_elim_closure_mem ts_o universe)
       ~transformed:ts_t)

(* ------------------------------------------------------------------ *)
(* E4: Figure 3                                                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  hr "E4: Figure 3 (irrelevant read introduction breaks the guarantee)";
  let a = Litmus.program Corpus.fig3_a in
  let b = Litmus.program Corpus.fig3_b in
  let c = Litmus.program Corpus.fig3_c in
  Fmt.pr "  (a) %s@.  (b) %s@.  (c) %s@." (behaviours_str a)
    (behaviours_str b) (behaviours_str c);
  let can00 p = Behaviour.Set.mem [ 0; 0 ] (Interp.behaviours p) in
  claim "(a) DRF, cannot print two zeros"
    (Interp.is_drf a && not (can00 a));
  claim "(b) racy, still cannot print two zeros"
    ((not (Interp.is_drf b)) && not (can00 b));
  claim "(c) prints two zeros" (can00 c);
  let b' = Safeopt_opt.Passes.introduce_irrelevant_reads a in
  claim "(a)->(b): SC behaviours preserved, DRF destroyed"
    (Behaviour.Set.equal (Interp.behaviours a) (Interp.behaviours b')
    && not (Interp.is_drf b'));
  let c' = Safeopt_opt.Passes.eliminate_reads_across_acquires b in
  claim "(b)->(c): cross-acquire elimination reproduces (c)"
    (Behaviour.Set.equal (Interp.behaviours c) (Interp.behaviours c'))

(* ------------------------------------------------------------------ *)
(* E5: the reorderability matrix                                       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  hr "E5: section 4 reorderability matrix";
  Fmt.pr "%a" Safeopt_core.Reorder.pp_matrix ();
  (* the paper's check-marks, row-major, distinct locations:
     W: y y y x y / R: y y y x y / Acq: all x / Rel: y y x x x /
     Ext: y y x x x *)
  let expected =
    [
      [ true; true; true; false; true ];
      [ true; true; true; false; true ];
      [ false; false; false; false; false ];
      [ true; true; false; false; false ];
      [ true; true; false; false; false ];
    ]
  in
  let m = Safeopt_core.Reorder.matrix ~same_location:false in
  claim "matrix matches the paper's table"
    (List.for_all2
       (fun row i -> List.for_all2 (fun e j -> m.(i).(j) = e) row (List.init 5 Fun.id) |> fun l -> l)
       expected (List.init 5 Fun.id))

(* ------------------------------------------------------------------ *)
(* E6: Figure 4 (de-permutations)                                      *)
(* ------------------------------------------------------------------ *)

(* Fig. 2's tracesets (section 4), explicit over {0,1}. *)
let fig2_original_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Read ("x", v); Write ("y", v) ];
             [ Start 1; Read ("y", v); Write ("x", 1); External v ];
           ])
       [ 0; 1 ])

let fig2_transformed_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Read ("x", v); Write ("y", v) ];
             [ Start 1; Write ("x", 1); Read ("y", v); External v ];
           ])
       [ 0; 1 ])

let fig4_t' =
  Action.[ Start 1; Write ("x", 1); Read ("y", 1); External 1 ]

let fig4_f : Safeopt_core.Reorder.f = [| 0; 2; 1; 3 |]

let fig4_t_bar =
  Traceset.add Action.[ Start 1; Write ("x", 1) ] fig2_original_ts

let e6 () =
  hr "E6: Figure 4 (de-permutation of prefixes)";
  List.iter
    (fun n ->
      let t = Safeopt_core.Reorder.depermute_prefix fig4_f fig4_t' n in
      Fmt.pr "  n=%d: %a  in T-bar: %b@." n Trace.pp t
        (Traceset.mem t fig4_t_bar))
    [ 4; 3; 2; 1; 0 ];
  claim "f de-permutes t' into T-bar"
    (Safeopt_core.Reorder.de_permutes vol0 fig4_f fig4_t' ~mem:(fun t ->
         Traceset.mem t fig4_t_bar))

(* ------------------------------------------------------------------ *)
(* E7: Figure 5 (unelimination)                                        *)
(* ------------------------------------------------------------------ *)

let fig5_original_ts =
  Traceset.of_list
    (List.concat_map
       (fun v ->
         Action.
           [
             [ Start 0; Write ("v", 1); Write ("y", 1) ];
             [ Start 1; Read ("x", v); Read ("v", 0); External 0 ];
             [ Start 1; Read ("x", v); Read ("v", 1); External 1 ];
           ])
       [ 0; 1 ])

let fig5_i' =
  List.map
    (fun (t, a) -> Interleaving.pair t a)
    Action.
      [
        (0, Start 0);
        (1, Start 1);
        (0, Write ("y", 1));
        (1, Read ("v", 0));
        (1, External 0);
      ]

let fig5_vol = Location.Volatile.of_list [ "v" ]

let e7 () =
  hr "E7: Figure 5 (unelimination construction)";
  match
    Safeopt_core.Unelimination.construct_from_traceset fig5_vol
      ~original:fig5_original_ts ~universe:[ 0; 1 ] fig5_i'
  with
  | None -> Fmt.pr "  FAILED to construct@."
  | Some { Safeopt_core.Unelimination.wild; matching } ->
      Fmt.pr "  I' = %a@." Interleaving.pp fig5_i';
      Fmt.pr "  I  = %a@." Interleaving.Wild.pp wild;
      claim "f maps index 2 to position 6 (paper's example)"
        (matching.(2) = 6);
      claim "all four unelimination clauses hold"
        (Safeopt_core.Unelimination.is_unelimination_function fig5_vol
           ~transformed:fig5_i' ~wild ~f:matching);
      let inst = Interleaving.Wild.instance wild in
      claim "the instance is an execution of T with the same behaviour"
        (Interleaving.is_execution_of fig5_original_ts inst
        && Behaviour.equal
             (Interleaving.behaviour inst)
             (Interleaving.behaviour fig5_i'))

(* ------------------------------------------------------------------ *)
(* E8: out-of-thin-air                                                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  hr "E8: section 5 out-of-thin-air program";
  let p = Litmus.program Corpus.oota in
  let universe = [ 0; 42 ] in
  let ts = Denote.traceset ~universe ~max_len:8 p in
  claim "no trace is an origin for 42"
    (not (Safeopt_core.Origin.traceset_has_origin 42 ts));
  claim "no bounded execution mentions 42 (Lemma 3)"
    (Safeopt_core.Origin.check_lemma3 42 ts ~max_steps:2_000_000 = Ok ());
  let reachable =
    Safeopt_opt.Transform.reachable ~max_programs:500
      (Safeopt_opt.Rule.i_ir :: Safeopt_opt.Rule.all)
      p
  in
  Fmt.pr "  programs reachable via the rules: %d@." (List.length reachable);
  claim "none can output 42 (Theorem 5)"
    (List.for_all (fun q -> not (Interp.can_output q 42)) reachable)

(* ------------------------------------------------------------------ *)
(* E9: section 4 elimination example                                   *)
(* ------------------------------------------------------------------ *)

let e9_orig = Litmus.program Corpus.sec4_elim_original
let e9_trans = Litmus.program Corpus.sec4_elim_transformed

let e9_check () =
  let universe = Denote.joint_universe [ e9_orig; e9_trans ] in
  Safeopt_core.Elimination.is_elimination vol0
    ~original:(Denote.traceset ~universe ~max_len:12 e9_orig)
    ~universe
    ~transformed:(Denote.traceset ~universe ~max_len:12 e9_trans)

let e9 () =
  hr "E9: section 4 traceset elimination example";
  claim "x:=1;print 1;lock;x:=1;unlock eliminates the long program"
    (e9_check ())

(* ------------------------------------------------------------------ *)
(* E10/E11: guarantee sweeps over the corpus                           *)
(* ------------------------------------------------------------------ *)

let e10_sweep () =
  List.for_all
    (fun t ->
      let p = Litmus.program t in
      List.for_all
        (fun s ->
          Safeopt_opt.Validate.behaviours_ok
            (Safeopt_opt.Validate.validate ~original:p
               ~transformed:s.Safeopt_opt.Transform.after ()))
        (Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.all p))
    Corpus.all

let e10 () =
  hr "E10: Theorems 1-4 sweep (all corpus programs x all rules)";
  let total =
    List.fold_left
      (fun acc t ->
        acc
        + List.length
            (Safeopt_opt.Transform.program_rewrites Safeopt_opt.Rule.all
               (Litmus.program t)))
      0 Corpus.all
  in
  Fmt.pr "  rule applications checked: %d@." total;
  claim "every safe-rule application preserves the DRF guarantee"
    (e10_sweep ())

let e11 () =
  hr "E11: Theorem 5 sweep (no rule chain manufactures a fresh constant)";
  let fresh_value = 23 in
  let ok =
    List.for_all
      (fun t ->
        let p = Litmus.program t in
        if List.mem fresh_value (Ast.all_constants_program p) then true
        else
          Safeopt_opt.Transform.reachable ~max_programs:60
            Safeopt_opt.Rule.all p
          |> List.for_all (fun q -> not (Interp.can_output q fresh_value)))
      Corpus.all
  in
  claim "23 never appears out of thin air across the corpus" ok

(* ------------------------------------------------------------------ *)
(* E12: TSO                                                            *)
(* ------------------------------------------------------------------ *)

let e12 () =
  hr "E12: section 8 — TSO explained by the transformations";
  Fmt.pr "  %-18s %-24s %-10s %s@." "test" "weak behaviours" "explained"
    "drf";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let weak = Model.weak_behaviours Model.Tso p in
      let expl = Portability.explained_by_transformations ~weak Model.Tso p in
      Fmt.pr "  %-18s %-24s %-10b %b@." t.Litmus.name
        (Fmt.str "%a" Behaviour.Set.pp weak)
        expl (Interp.is_drf p))
    [
      Corpus.sb;
      Corpus.lb;
      Corpus.mp;
      Corpus.mp_volatile;
      Corpus.mp_locked;
      Corpus.corr;
      Corpus.fig3_a;
      Corpus.dekker_volatile;
    ];
  claim "SB exhibits exactly the 0,0 weakness"
    (Behaviour.Set.equal
       (Model.weak_behaviours Model.Tso (Litmus.program Corpus.sb))
       (Behaviour.Set.singleton [ 0; 0 ]))

(* ------------------------------------------------------------------ *)
(* E13: PSO (other memory models, section 8's outlook)                 *)
(* ------------------------------------------------------------------ *)

let e13 () =
  hr "E13: PSO — per-location store buffers (extension)";
  Fmt.pr "  %-14s %-16s %-18s %s@." "test" "pso-weak" "beyond-tso" "explained";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let weak = Model.weak_behaviours Model.Pso p in
      let beyond = Model.weak_behaviours ~than:Model.Tso Model.Pso p in
      let expl = Portability.explained_by_transformations ~weak Model.Pso p in
      Fmt.pr "  %-14s %-16s %-18s %b@." t.Litmus.name
        (Fmt.str "%a" Behaviour.Set.pp weak)
        (Fmt.str "%a" Behaviour.Set.pp beyond)
        expl)
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.corr; Corpus.mp_volatile ];
  claim "PSO weakens MP (write-write reordering), beyond TSO"
    (Behaviour.Set.mem [ 0 ]
       (Model.weak_behaviours ~than:Model.Tso Model.Pso
          (Litmus.program Corpus.mp)));
  claim "MP's PSO weakness is explained by R-WW (+R-WR, E-RAW)"
    (Portability.explained_by_transformations Model.Pso
       (Litmus.program Corpus.mp))

(* ------------------------------------------------------------------ *)
(* E14: robustness enforcement                                         *)
(* ------------------------------------------------------------------ *)

let e14 () =
  hr "E14: fence inference (DRF enforcement makes programs SC-on-TSO)";
  Fmt.pr "  %-14s %-20s %s@." "test" "promoted" "robust after";
  List.iter
    (fun t ->
      let p = Litmus.program t in
      let p', promoted = Safeopt_model.Robustness.enforce p in
      Fmt.pr "  %-14s %-20s %b@." t.Litmus.name
        (if promoted = [] then "(already DRF)"
         else String.concat ", " promoted)
        (Safeopt_model.Robustness.is_robust p'))
    [ Corpus.sb; Corpus.mp; Corpus.lb; Corpus.mp_locked ];
  claim "every enforced corpus program is TSO-robust"
    (List.for_all
       (fun t ->
         let p', _ = Safeopt_model.Robustness.enforce (Litmus.program t) in
         Safeopt_model.Robustness.is_robust p')
       Corpus.all)

(* ------------------------------------------------------------------ *)
(* P1: scaling data                                                    *)
(* ------------------------------------------------------------------ *)

let writer_reader_program n_threads =
  (* n threads, each writes its own location then reads its neighbour's *)
  {
    Ast.threads =
      List.init n_threads (fun i ->
          let mine = Printf.sprintf "x%d" i in
          let next = Printf.sprintf "x%d" ((i + 1) mod n_threads) in
          [
            Ast.Move ("r1", Ast.Nat 1);
            Ast.Store (mine, "r1");
            Ast.Load ("r2", next);
            Ast.Print "r2";
          ]);
    volatile = Location.Volatile.none;
  }

let p1 () =
  hr "P1: scaling of exhaustive enumeration";
  Fmt.pr "  %-8s %-12s %-14s %-12s@." "threads" "states" "behaviours" "drf";
  List.iter
    (fun n ->
      let p = writer_reader_program n in
      let states = Explorer.count_states (full p) in
      let bs = Behaviour.Set.cardinal (Interp.behaviours p) in
      Fmt.pr "  %-8d %-12d %-14d %-12b@." n states bs (Interp.is_drf p))
    [ 1; 2; 3; 4 ]

(* n threads with [k] private actions around one shared store. *)
let private_work_program n k =
  {
    Ast.threads =
      List.init n (fun i ->
          let priv j = Printf.sprintf "p%d_%d" i j in
          List.init k (fun j -> Ast.Store (priv j, "r1"))
          @ [ Ast.Store ("shared", "r1") ]
          @ List.init k (fun j -> Ast.Load ("r2", priv j)));
    volatile = Location.Volatile.none;
  }

let p2 () =
  hr "P2: partial-order reduction ablation";
  Fmt.pr "  %-20s %-14s %-12s %-10s@." "program" "states (full)" "with POR"
    "reduction";
  List.iter
    (fun (n, k) ->
      let p = private_work_program n k in
      let states = Explorer.count_states (full p) in
      let por = Interp.count_states p in
      Fmt.pr "  %dt x %d private     %-14d %-12d %.1fx@." n k states por
        (float_of_int states /. float_of_int (max 1 por)))
    [ (2, 2); (2, 4); (3, 2); (3, 3) ];
  claim "POR preserves behaviours on the ablation programs"
    (List.for_all
       (fun (n, k) ->
         let p = private_work_program n k in
         Behaviour.Set.equal
           (Explorer.behaviours (full p))
           (Interp.behaviours p))
       [ (2, 2); (2, 4); (3, 2); (3, 3) ])

(* ------------------------------------------------------------------ *)
(* P3: exploration engine benchmark -> BENCH_explore.json              *)
(* ------------------------------------------------------------------ *)

(* Reference numbers for the same workload (reps = 20 over the full
   litmus corpus), measured on the hash-table engine the packed-arena
   visited set replaced, at the commit immediately preceding it.  The
   original string-keyed anchor (count_states 0.4204s / 21880 states)
   predates the RMW litmus programs and measured a corpus a fifth this
   size, so it was re-based here on the grown corpus.  Kept fixed so
   BENCH_explore.json tracks the trajectory against a stable anchor;
   the claim below is a regression gate against it. *)
let baseline_pre_arena =
  [
    ("count_states", 1.0528);
    ("count_states_por", 0.9260);
    ("behaviours", 1.1420);
    ("behaviours_por", 1.0224);
  ]

(* Wall-clock timing on the monotonic clock (Clock): immune to system
   time adjustments, so benchmark walls are never negative or skewed. *)
let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.elapsed t0)

(* [reps] rounds of [f] over [xs], summed: a workload's work units. *)
let sum_reps reps xs f =
  let acc = ref 0 in
  for _ = 1 to reps do
    List.iter (fun x -> acc := !acc + f x) xs
  done;
  !acc

(* One BENCH file's record, the only shape `drfopt bench diff` reads:
   [experiments] are the timed workloads it compares by rate, [claims]
   the claims printed since the mode's header, and [detail] everything
   it does not compare.  An experiment's rate is work units per second,
   so a quick run compares with a full one; [extra] figures ride along.
   The record must never carry NaN or infinity (a rate over a zero
   wall): the writer refuses to emit it instead of publishing garbage. *)
let experiment ?(extra = []) name ~total wall =
  Json.Obj
    ([
       ("name", Json.String name);
       ("wall_s", Json.Float wall);
       ("units_per_sec", Json.Float (float_of_int total /. wall));
       ("total", Json.Int total);
     ]
    @ extra)

let rec finite = function
  | Json.Float f -> Float.is_finite f
  | Json.List l -> List.for_all finite l
  | Json.Obj fields -> List.for_all (fun (_, v) -> finite v) fields
  | _ -> true

let write_bench ~mode ~quick experiments detail =
  let file = "BENCH_" ^ mode ^ ".json" in
  let record =
    Json.Obj
      [
        ("schema", Json.String "bench/v3");
        ("mode", Json.String mode);
        ("quick", Json.Bool quick);
        ("experiments", Json.List experiments);
        ("claims", Json.Obj (List.rev !claims));
        ("detail", Json.Obj detail);
      ]
  in
  if not (finite record) then begin
    Fmt.epr
      "bench: refusing to emit %s: a non-finite figure; a workload completed \
       too fast to time@."
      file;
    exit 1
  end;
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_lines record);
      output_char oc '\n');
  Fmt.pr "  wrote %s@." file

(* Per-phase breakdowns for the BENCH_* files: the benchmark runs under
   a Memory tracer sink (entry-point spans only, a few events per
   exploration — negligible next to the workloads), and the stopped
   event buffer folds into the phase rows [drfopt report] prints. *)
let phases_json events =
  Json.List
    (List.map
       (fun (a : Obs.Profile.agg) ->
         Json.Obj
           [
             ("name", Json.String a.a_name);
             ("count", Json.Int a.a_count);
             ("wall_s", Json.Float a.a_total);
             ("self_s", Json.Float a.a_self);
           ])
       (Obs.Report.aggregate events).Obs.Report.phases)

(* [quick] runs a quarter of the reps — the CI smoke mode behind
   `drfopt bench diff`.  The fixed pre-arena anchor walls are scaled by
   reps/20 so the speedup and the regression-gate claim stay
   comparable; units_per_sec is reps-independent either way, which is
   what `bench diff` compares a quick run against the committed full
   run on. *)
let explore_bench ?(quick = false) () =
  if quick then
    hr "P3: exploration engine (quick smoke mode) -> BENCH_explore.json"
  else hr "P3: exploration engine on the litmus corpus -> BENCH_explore.json";
  Obs.Tracer.start Obs.Tracer.Memory;
  let programs = List.map Litmus.program Corpus.all in
  let reps = if quick then 5 else 20 in
  let scale_anchor w = w *. float_of_int reps /. 20. in
  let count_run system () =
    sum_reps reps programs (fun p -> Explorer.count_states (system p))
  in
  let beh_run system () =
    sum_reps reps programs (fun p ->
        Behaviour.Set.cardinal (Explorer.behaviours (system p)))
  in
  let reduced p = Thread_system.make p in
  let experiments =
    [
      ("count_states", time (count_run full));
      ("count_states_por", time (count_run reduced));
      ("behaviours", time (beh_run full));
      ("behaviours_por", time (beh_run reduced));
    ]
  in
  (* POR soundness over the whole corpus (the acceptance criterion),
     with one stats sink accumulating across every exploration. *)
  let stats = Explorer.create_stats () in
  let identical =
    List.for_all
      (fun p ->
        Behaviour.Set.equal
          (Explorer.behaviours ~stats (full p))
          (Interp.behaviours ~stats p))
      programs
  in
  let base_wall name = scale_anchor (List.assoc name baseline_pre_arena) in
  let speedup name = base_wall name /. snd (List.assoc name experiments) in
  Fmt.pr "  %-18s %-10s %-12s %-14s %s@." "experiment" "total" "wall (s)"
    "units/s" "speedup";
  let rows =
    List.map
      (fun (name, (total, wall)) ->
        Fmt.pr "  %-18s %-10d %-12.4f %-14.0f %.2fx@." name total wall
          (float_of_int total /. wall) (speedup name);
        experiment name ~total wall
          ~extra:
            [
              ("baseline_wall_s", Json.Float (base_wall name));
              ("speedup", Json.Float (speedup name));
            ])
      experiments
  in
  claim "POR-reduced and full behaviour sets identical on the corpus" identical;
  claim "count_states no slower than the pre-packed-arena baseline"
    (speedup "count_states" >= 0.9);
  write_bench ~mode:"explore" ~quick rows
    [
      ("reps", Json.Int reps);
      ("programs", Json.Int (List.length programs));
      ("phases", phases_json (Obs.Tracer.stop ()));
      ("explorer_stats", Json.Obj (Explorer.stats_fields stats));
    ]

(* ------------------------------------------------------------------ *)
(* P4: pass-manager pipeline benchmark -> BENCH_pipeline.json          *)
(* ------------------------------------------------------------------ *)

(* The default safe pipeline: the pipeline, refine and rmw modes all
   run it. *)
let safe_pipeline = "constprop;copyprop;cse*;dead-moves;dse;normalise"

let safe_spec =
  match Safeopt_opt.Pipeline.parse safe_pipeline with
  | Ok s -> s
  | Error e -> failwith e

(* Run the default safe pipeline with per-pass differential validation
   over the litmus corpus, recording per-program pass work (rewrite
   sites, validation wall time, exploration states).  [quick] trims the
   corpus to its first few programs — the CI smoke mode. *)
let pipeline_bench ?(quick = false) () =
  let open Safeopt_opt in
  if quick then
    hr "P4: pass-manager pipeline (quick smoke mode) -> BENCH_pipeline.json"
  else hr "P4: pass-manager pipeline over the litmus corpus -> \
           BENCH_pipeline.json";
  Obs.Tracer.start Obs.Tracer.Memory;
  let corpus =
    if quick then List.filteri (fun i _ -> i < 4) Corpus.all else Corpus.all
  in
  let t0 = Clock.now () in
  let rows =
    List.map
      (fun (l : Litmus.t) ->
        let p = Litmus.program l in
        let o =
          Pipeline.run ~validate_each:true ~validator:Validate.Exhaustive
            safe_spec p
        in
        let sites, states, vwall =
          List.fold_left
            (fun (n, s, w) ps ->
              ( n + List.length ps.Pipeline.ps_sites,
                s + ps.Pipeline.ps_explorer.Explorer.states,
                w +. ps.Pipeline.ps_validation_wall ))
            (0, 0, 0.) o.Pipeline.steps
        in
        let rejected = Option.is_some o.Pipeline.failure in
        Fmt.pr "  %-24s %2d sites, %5d states, %7.2f ms validation%s@."
          l.Litmus.name sites states (vwall *. 1000.)
          (if rejected then "  REJECTED" else "");
        ( rejected,
          Json.Obj
            [
              ("name", Json.String l.Litmus.name);
              ("sites", Json.Int sites);
              ("validation_states", Json.Int states);
              ("validation_wall_s", Json.Float vwall);
              ("rejected", Json.Bool rejected);
            ] ))
      corpus
  in
  let wall = Clock.elapsed t0 in
  claim "no safe pipeline rejected on the corpus"
    (List.for_all (fun (r, _) -> not r) rows);
  write_bench ~mode:"pipeline" ~quick
    [ experiment "corpus" ~total:(List.length corpus) wall ]
    [
      ("pipeline", Json.String safe_pipeline);
      ("phases", phases_json (Obs.Tracer.stop ()));
      ("per_program", Json.List (List.map snd rows));
    ]

(* ------------------------------------------------------------------ *)
(* P5: domain-parallel exploration -> BENCH_parallel.json              *)
(* ------------------------------------------------------------------ *)

(* Time the corpus workloads sequentially and across [jobs] domains on
   one shared pool of work-stealing workers, recording wall-clock
   speedups, steal counts, and state-visit parity.  Every parallel
   total is compared against the sequential one, and the acceptance
   criteria are re-checked explicitly: parallel behaviour sets must be
   identical to the sequential ones program by program, and parallel
   state counts (with the reduction on) must equal sequential ones
   exactly.  These parity checks are the mode's only claims, and the
   mode exits through [exit_on_mismatch], so any of them failing fails
   CI.  [quick] trims the repetitions — the CI smoke mode.

   Speedups are figures, not claims: they are bounded by the host's
   core count, and on the corpus's small explorations two domains
   mostly measure their own start-up.  The record's detail holds both
   the requested and the effective parallelism, and on a host with
   fewer than 2 cores it carries ["degraded": true] — the pool rates
   and speedups of such a run measure scheduling overhead, not
   scaling. *)
let parallel_bench ?(quick = false) ~jobs () =
  let jobs_requested = Par.resolve_jobs jobs in
  hr "P5: work-stealing parallel exploration -> BENCH_parallel.json";
  let host_cores = Domain.recommended_domain_count () in
  let jobs_effective = min jobs_requested host_cores in
  let degraded = host_cores < 2 in
  let reps = if quick then 2 else 8 in
  Fmt.pr "  %d domains requested (%d effective), %d cores on this host, %d \
          reps%s@."
    jobs_requested jobs_effective host_cores reps
    (if degraded then " [degraded: single-core host]" else "");
  let programs = List.map Litmus.program Corpus.all in
  let big = [ writer_reader_program 3; private_work_program 3 3 ] in
  let all = programs @ big in
  Par.Pool.with_pool jobs_requested (fun pool ->
      let beh ?pool () =
        sum_reps reps all (fun p ->
            Behaviour.Set.cardinal (Interp.behaviours ?pool p))
      in
      let count ?pool () =
        sum_reps reps all (fun p -> Interp.count_states ?pool p)
      in
      let litmus ?pool () =
        sum_reps reps [ Corpus.all ] (fun tests ->
            List.length
              (List.filter Litmus.passed (Litmus.check_all ?pool tests)))
      in
      Fmt.pr "  %-18s %-10s %-12s %-12s %s@." "experiment" "total" "seq (s)"
        "par (s)" "speedup";
      (* each side is its own experiment; the pool side carries the
         speedup *)
      let experiments =
        List.map
          (fun (name, (f : ?pool:Par.Pool.t -> unit -> int)) ->
            let rseq, wseq = time (fun () -> f ?pool:None ()) in
            let rpar, wpar = time (fun () -> f ~pool ()) in
            Fmt.pr "  %-18s %-10d %-12.4f %-12.4f %.2fx@." name rseq wseq wpar
              (wseq /. wpar);
            ( rseq = rpar,
              [
                experiment (name ^ "/sequential") ~total:rseq wseq;
                experiment (name ^ "/pool") ~total:rpar wpar
                  ~extra:[ ("speedup", Json.Float (wseq /. wpar)) ];
              ] ))
          [
            ("behaviours", beh);
            ("count_states", count);
            ("litmus_corpus", litmus);
          ]
      in
      let totals_equal = List.for_all fst experiments in
      let identical =
        List.for_all
          (fun p ->
            Behaviour.Set.equal (Interp.behaviours p)
              (Interp.behaviours ~pool p))
          all
      in
      (* Exact reduced-count parity per program, plus aggregate steal
         counts from the work-stealing scheduler. *)
      let pstats = Explorer.create_stats () in
      let states_parity =
        List.for_all
          (fun p ->
            Interp.count_states p
            = Interp.count_states ~stats:pstats ~pool p)
          all
      in
      Fmt.pr "  steals: %d, starvation waits: %d (reduced corpus pass)@."
        pstats.Explorer.steals pstats.Explorer.lock_waits;
      (* Per-jobs scaling curve on the count_states workload: one rep
         per point, sequential baseline at jobs 1. *)
      let _, w1 =
        time (fun () ->
            List.iter (fun p -> ignore (Interp.count_states p)) all)
      in
      let curve_points =
        List.sort_uniq compare
          (List.filter (fun j -> j > 1) [ 2; 4; jobs_requested ])
      in
      let curve =
        List.map
          (fun j ->
            Par.Pool.with_pool j (fun pl ->
                let _, wj =
                  time (fun () ->
                      List.iter
                        (fun p -> ignore (Interp.count_states ~pool:pl p))
                        all)
                in
                Fmt.pr "  scaling: jobs %d -> %.4f s (%.2fx)@." j wj (w1 /. wj);
                Json.Obj
                  [
                    ("jobs", Json.Int j);
                    ("wall_s", Json.Float wj);
                    ("speedup", Json.Float (w1 /. wj));
                  ]))
          curve_points
      in
      claim "parallel totals equal sequential totals" totals_equal;
      claim "parallel and sequential behaviour sets identical" identical;
      claim "reduced state counts identical across jobs" states_parity;
      write_bench ~mode:"parallel" ~quick (List.concat_map snd experiments)
        [
          ("jobs_requested", Json.Int jobs_requested);
          ("jobs_effective", Json.Int jobs_effective);
          ("host_cores", Json.Int host_cores);
          ("degraded", Json.Bool degraded);
          ("reps", Json.Int reps);
          ("programs", Json.Int (List.length all));
          ("steals", Json.Int pstats.Explorer.steals);
          ("lock_waits", Json.Int pstats.Explorer.lock_waits);
          ("scaling", Json.List curve);
        ])

(* ------------------------------------------------------------------ *)
(* P6: thread-local refinement validator -> BENCH_refine.json          *)
(* ------------------------------------------------------------------ *)

(* n threads, each reading a thread-private location twice and printing
   the second read — E-RAR's redundant read, once per thread.  All
   locations are private, so the per-thread tracesets stay constant as
   n grows while the interleaving count (the exhaustive validator's
   cost) explodes: the separation the refinement validator exploits. *)
let redundant_read_program n =
  {
    Ast.threads =
      List.init n (fun i ->
          let x = Printf.sprintf "x%d" i in
          [ Ast.Load ("r1", x); Ast.Load ("r2", x); Ast.Print "r2" ]);
    volatile = Location.Volatile.none;
  }

(* The validator ladder over a set of tests: the safe pipeline with
   per-pass validation under [Auto] must agree, pass for pass, with the
   same run under [Exhaustive] (the refine rung escalates instead of
   rejecting, so this agreement is exact, not approximate).  The metrics
   registry is enabled only around one [Auto] sweep, so the validate.*
   counters give a clean fast-path hit rate.  The walls are the best of
   five alternating timed sweeps of each validator, metrics off for
   both, so one scheduler or GC stall cannot decide a cost claim. *)
type ladder = {
  validations : int;
  static_hits : int;
  refine_hits : int;
  refine_misses : int;
  exhaustive_runs : int;
  auto_wall : float;
  exh_wall : float;
  agreements : (string * string * bool) list;  (** name, verdict, agree *)
  all_agree : bool;
}

let ladder_sweep tests =
  let open Safeopt_opt in
  let sweep validator =
    List.map
      (fun (l : Litmus.t) ->
        ( l.Litmus.name,
          Pipeline.run ~validate_each:true ~validator safe_spec
            (Litmus.program l) ))
      tests
  in
  Obs.Metrics.reset_global ();
  Obs.Metrics.set_enabled true;
  let auto_runs = sweep Validate.Auto in
  Obs.Metrics.set_enabled false;
  let counter n =
    Option.value ~default:0 Obs.Metrics.(find_counter global n)
  in
  let exh_runs = sweep Validate.Exhaustive in
  let auto_wall = ref infinity and exh_wall = ref infinity in
  let best wall v = wall := Float.min !wall (snd (time (fun () -> sweep v))) in
  for _ = 1 to 5 do
    best auto_wall Validate.Auto;
    best exh_wall Validate.Exhaustive
  done;
  let verdict (o : Pipeline.outcome) =
    match o.Pipeline.failure with
    | None -> "ok"
    | Some (pass, _) -> "REJECTED at " ^ pass
  in
  let agreements =
    List.map2
      (fun (name, (a : Pipeline.outcome)) (_, (e : Pipeline.outcome)) ->
        let agree =
          verdict a = verdict e && Ast.equal_program a.final e.final
        in
        (name, verdict a, agree))
      auto_runs exh_runs
  in
  let l =
    {
      validations = counter "validate.outcomes";
      static_hits = counter "validate.static_hits";
      refine_hits = counter "validate.refine_hits";
      refine_misses = counter "validate.refine_misses";
      exhaustive_runs = counter "validate.exhaustive_runs";
      auto_wall = !auto_wall;
      exh_wall = !exh_wall;
      agreements;
      all_agree = List.for_all (fun (_, _, a) -> a) agreements;
    }
  in
  List.iter
    (fun (name, v, agree) ->
      Fmt.pr "  %-24s auto: %-10s agree with exhaustive: %b@." name v agree)
    agreements;
  Fmt.pr
    "  validations: %d  static: %d  refine: %d  escalated: %d  exhaustive \
     runs: %d@."
    l.validations l.static_hits l.refine_hits l.refine_misses
    l.exhaustive_runs;
  Fmt.pr "  auto sweep: %.2f ms; exhaustive sweep: %.2f ms@."
    (l.auto_wall *. 1000.) (l.exh_wall *. 1000.);
  l

(* The ladder's two timed sweeps over [programs] tests, and its counts
   for the record's detail. *)
let ladder_json ~programs l =
  ( [
      experiment "auto_sweep" ~total:programs l.auto_wall;
      experiment "exhaustive_sweep" ~total:programs l.exh_wall;
    ],
    [
      ("pipeline", Json.String safe_pipeline);
      ("validations", Json.Int l.validations);
      ("static_hits", Json.Int l.static_hits);
      ("refine_hits", Json.Int l.refine_hits);
      ("refine_misses", Json.Int l.refine_misses);
      ("exhaustive_runs", Json.Int l.exhaustive_runs);
      ( "fast_path_rate",
        Json.Float
          (if l.validations = 0 then 0.
           else
             float_of_int (l.static_hits + l.refine_hits)
             /. float_of_int l.validations) );
    ] )

(* Two halves, both feeding BENCH_refine.json:

   1. The validator ladder over the litmus corpus ([ladder_sweep]);
      the acceptance criterion is that a majority of validations are
      decided without enumerating one interleaving, and the cost claim
      compares the best sweep walls of the two validators.

   2. Scaling: validate cse on [redundant_read_program n] for growing
      n, by refinement and by exhaustive enumeration under a state
      budget.  Both must answer, and agree, at every n: refinement
      never enumerates an interleaving (and its per-thread verdicts
      carry completeness, so the answer is sound), and the exhaustive
      validator's partial-order reduction keeps it within the budget.
      The unreduced enumeration of the same program at n = 8 must
      exceed that budget: the blow-up both of them avoid.

   [quick] trims the corpus sweep — the CI smoke mode. *)
let refine_bench ?(quick = false) () =
  let open Safeopt_opt in
  hr "P6: thread-local refinement validator -> BENCH_refine.json";
  let corpus =
    if quick then List.filteri (fun i _ -> i < 6) Corpus.all else Corpus.all
  in
  let l = ladder_sweep corpus in
  claim "auto and exhaustive pipeline verdicts agree on the corpus"
    l.all_agree;
  claim "majority of validations decided without interleavings"
    (2 * (l.static_hits + l.refine_hits) > l.validations);
  claim "auto costs at most twice exhaustive plus 10 ms"
    (l.auto_wall <= (2. *. l.exh_wall) +. 0.01);
  (* scaling: refinement answers where enumeration exceeds its budget *)
  let state_budget = 200_000 in
  Fmt.pr "  %-8s %-14s %-12s %-22s@." "threads" "refine (ms)" "verdict"
    "exhaustive (budget)";
  let scaling =
    List.map
      (fun n ->
        let p = redundant_read_program n in
        let p' = fst (Passes.eliminate_redundancy p) in
        let r, rwall =
          time (fun () -> Safeopt_analysis.Refine.check ~original:p
                            ~transformed:p' ())
        in
        let safe = Safeopt_analysis.Refine.verdict r = Safeopt_analysis.Refine.Safe in
        let exh, ewall =
          time (fun () ->
              try
                let rep =
                  Validate.validate ~max_states:state_budget ~original:p
                    ~transformed:p' ()
                in
                if Validate.ok rep then "ok" else "failed"
              with Explorer.Too_many_states s ->
                Printf.sprintf "budget_exceeded:%d" s)
        in
        Fmt.pr "  %-8d %-14.2f %-12s %-22s@." n (rwall *. 1000.)
          (if safe then "safe" else "NOT SAFE")
          exh;
        ( safe,
          exh = (if safe then "ok" else "failed"),
          Json.Obj
            [
              ("threads", Json.Int n);
              ("refine_safe", Json.Bool safe);
              ("refine_wall_s", Json.Float rwall);
              ("exhaustive", Json.String exh);
              ("exhaustive_wall_s", Json.Float ewall);
            ] ))
      [ 2; 4; 8 ]
  in
  claim "refinement validates every scaling point"
    (List.for_all (fun (safe, _, _) -> safe) scaling);
  claim "exhaustive validation agrees with refinement at every scaling point"
    (List.for_all (fun (_, agree, _) -> agree) scaling);
  let unreduced_exceeds, unreduced =
    match
      Explorer.count_states ~max_states:state_budget
        (full (redundant_read_program 8))
    with
    | n -> (false, Printf.sprintf "%d states" n)
    | exception Explorer.Too_many_states s ->
        (true, Printf.sprintf "budget_exceeded:%d" s)
  in
  Fmt.pr "  unreduced enumeration at 8 threads: %s@." unreduced;
  claim "unreduced enumeration exceeds the state budget at 8 threads"
    unreduced_exceeds;
  let experiments, ladder = ladder_json ~programs:(List.length corpus) l in
  write_bench ~mode:"refine" ~quick experiments
    (ladder
    @ [
        ("state_budget", Json.Int state_budget);
        ("unreduced_8_threads", Json.String unreduced);
        ( "corpus",
          Json.List
            (List.map
               (fun (name, v, agree) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("verdict", Json.String v);
                     ("agree", Json.Bool agree);
                   ])
               l.agreements) );
        ("scaling", Json.List (List.map (fun (_, _, row) -> row) scaling));
      ])

(* ------------------------------------------------------------------ *)
(* P7: the lock-free atomic pack -> BENCH_rmw.json                     *)
(* ------------------------------------------------------------------ *)

(* The RMW acceptance gates, timed: (1) every lock-free scenario passes
   its exhaustive litmus validation; (2) the store-buffer machines give
   SB-with-xchg no relaxed outcome (RMWs flush); (3) the default
   pipeline over the pack, per-pass-validated under [Auto], agrees with
   [Exhaustive] — atomic threads make the refine rung return Bounded,
   so the metrics show how often the ladder escalates on this
   atomic-heavy corpus (contrast BENCH_refine.json's fast-path rate on
   the full corpus). *)
let lock_free_pack =
  [
    Corpus.atomic_faa_counter;
    Corpus.atomic_ticket_lock;
    Corpus.atomic_treiber;
    Corpus.atomic_sense_barrier;
    Corpus.atomic_spin_then_block;
    Corpus.atomic_sb_xchg;
  ]

let rmw_bench () =
  hr "P7: lock-free atomic pack -> BENCH_rmw.json";
  Fmt.pr "  %-24s %-8s %12s@." "scenario" "litmus" "wall (ms)";
  let walls =
    List.map
      (fun (l : Litmus.t) ->
        let o, wall = time (fun () -> Litmus.check l) in
        let ok = Litmus.passed o in
        Fmt.pr "  %-24s %-8s %12.2f@." l.Litmus.name
          (if ok then "ok" else "FAILED")
          (wall *. 1000.);
        (l.Litmus.name, ok, wall))
      lock_free_pack
  in
  claim "every lock-free scenario passes its expectations"
    (List.for_all (fun (_, ok, _) -> ok) walls);
  let sb_x = Litmus.program Corpus.atomic_sb_xchg in
  claim "SB-with-xchg has no relaxed TSO outcome (buffer flushed)"
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Tso sb_x));
  claim "nor under PSO (all per-location buffers flushed)"
    (Behaviour.Set.is_empty (Model.weak_behaviours Model.Pso sb_x));
  let l = ladder_sweep lock_free_pack in
  claim "auto and exhaustive pipeline verdicts agree on the pack"
    l.all_agree;
  claim "no atomic-bearing rewrite is decided by the refine rung"
    (l.refine_hits = 0 || l.validations > l.refine_hits);
  let experiments, ladder =
    ladder_json ~programs:(List.length lock_free_pack) l
  in
  write_bench ~mode:"rmw" ~quick:false
    (experiment "litmus_pack" ~total:(List.length walls)
       (List.fold_left (fun acc (_, _, w) -> acc +. w) 0. walls)
    :: experiments)
    (ladder
    @ [
        ( "scenarios",
          Json.List
            (List.map2
               (fun (name, ok, wall) (_, v, agree) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("litmus_ok", Json.Bool ok);
                     ("litmus_wall_s", Json.Float wall);
                     ("pipeline_verdict", Json.String v);
                     ("ladder_agrees", Json.Bool agree);
                   ])
               walls l.agreements) );
      ])

(* ------------------------------------------------------------------ *)
(* P8: pass x memory-model portability -> BENCH_portability.json       *)
(* ------------------------------------------------------------------ *)

(* Sweep the pass registry over the litmus corpus under each memory
   model and pin the portability asymmetries as claims: at least one
   pass must be safe under SC yet unsafe under TSO (the compiler
   reordering the store buffer exposes), and every unsafe cell's
   counterexample behaviour must replay from scratch under its model.
   [quick] trims the registry to the four passes that carry the
   asymmetries — the CI smoke mode. *)
let portability_bench ?(quick = false) () =
  let open Safeopt_litmus in
  hr "P8: pass x memory-model portability matrix -> BENCH_portability.json";
  let passes =
    if quick then
      List.filter
        (fun (p : Safeopt_opt.Pass.t) ->
          List.mem p.Safeopt_opt.Pass.name
            [ "dead-stores"; "store-load-reorder"; "read-intro"; "redundancy" ])
        Safeopt_opt.Pipeline.registry
    else Safeopt_opt.Pipeline.registry
  in
  let m, wall = time (fun () -> Portability.sweep ~passes ()) in
  Fmt.pr "%a" Portability.pp m;
  let verdict_of ~pass ~model =
    Option.map
      (fun c -> c.Portability.c_verdict)
      (Portability.cell m ~pass ~model)
  in
  let sc_safe_tso_unsafe =
    List.filter
      (fun pass ->
        match
          ( verdict_of ~pass ~model:Safeopt_model.Memory_model.Sc,
            verdict_of ~pass ~model:Safeopt_model.Memory_model.Tso )
        with
        | Some Portability.Safe, Some (Portability.Unsafe _) -> true
        | _ -> false)
      m.Portability.passes
  in
  let unsafe = Portability.unsafe_cells m in
  let weak_unsafe_replayed =
    List.for_all
      (fun ((c : Portability.cell), (u : Portability.unsafe_evidence)) ->
        Safeopt_model.Memory_model.equal c.Portability.c_model
          Safeopt_model.Memory_model.Sc
        || u.Portability.u_replayed)
      unsafe
  in
  Fmt.pr "  SC-safe but TSO-unsafe passes: %a@."
    Fmt.(list ~sep:(any ", ") string)
    sc_safe_tso_unsafe;
  claim "some pass is safe under SC but unsafe under TSO"
    (sc_safe_tso_unsafe <> []);
  claim "every weak-model unsafe cell's witness replays from scratch"
    weak_unsafe_replayed;
  let cell_rows =
    List.map
      (fun (c : Portability.cell) ->
        let evidence =
          match c.Portability.c_verdict with
          | Portability.Unsafe u ->
              [
                ("test", Json.String u.Portability.u_test);
                ( "behaviour",
                  Json.String
                    (match u.Portability.u_behaviour with
                    | Some b -> Fmt.str "%a" Behaviour.pp b
                    | None -> "") );
                ("replayed", Json.Bool u.Portability.u_replayed);
              ]
          | _ -> []
        in
        Json.Obj
          ([
             ("pass", Json.String c.Portability.c_pass);
             ( "model",
               Json.String
                 (Safeopt_model.Memory_model.name c.Portability.c_model) );
             ( "verdict",
               Json.String (Portability.verdict_tag c.Portability.c_verdict) );
             ("checked", Json.Int c.Portability.c_checked);
           ]
          @ evidence))
      m.Portability.cells
  in
  write_bench ~mode:"portability" ~quick
    [ experiment "sweep" ~total:(List.length m.Portability.cells) wall ]
    [
      ("passes", Json.Int (List.length m.Portability.passes));
      ("models", Json.Int (List.length m.Portability.models));
      ("tests", Json.Int (List.length m.Portability.tests));
      ( "sc_safe_tso_unsafe",
        Json.List (List.map (fun p -> Json.String p) sc_safe_tso_unsafe) );
      ("cells", Json.List cell_rows);
    ]

(* ------------------------------------------------------------------ *)
(* obs-overhead: the disabled-telemetry cost guard                     *)
(* ------------------------------------------------------------------ *)

(* The instrumentation contract is that a disabled call site costs one
   flag load and one branch — no closure, no allocation.  This mode
   pins it with three claims, so CI catches an accidentally-allocating
   guard:
     1. [Gc.minor_words] across a million disabled guard hits stays
        below a thousand words (i.e. the loop itself allocates nothing;
        the slack absorbs unrelated runtime noise);
     2. a disabled guard hit costs well under 20 ns;
     3. two interleaved runs of the same macro workload (corpus
        behaviour enumeration, all guards disabled) land within 1.25x
        of each other — the instrumented hot loops are within run-to-run
        noise of themselves. *)
let obs_overhead () =
  hr "obs-overhead: disabled-telemetry cost guard";
  assert (not (Obs.Tracer.enabled ()));
  assert (not (Obs.Metrics.enabled ()));
  assert (not (Obs.Snapshot.enabled ()));
  let hits = 1_000_000 in
  let sink = ref 0 in
  (* 1: allocation-free fast path *)
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do
    if Obs.Tracer.enabled () then incr sink;
    if Obs.Metrics.enabled () then incr sink;
    if Obs.Snapshot.enabled () then incr sink
  done;
  let dw = Gc.minor_words () -. w0 in
  Fmt.pr "  %.0f minor words / %d hits@." dw hits;
  claim "disabled guards allocate nothing" (dw < 1_000.);
  (* 2: per-hit cost *)
  let t0 = Clock.now () in
  for _ = 1 to hits do
    if Obs.Tracer.enabled () then incr sink
  done;
  let ns = Clock.elapsed t0 *. 1e9 /. float_of_int hits in
  ignore (Sys.opaque_identity !sink);
  Fmt.pr "  %.2f ns/hit@." ns;
  claim "disabled guard costs < 20 ns" (ns < 20.);
  (* 3: macro A/A stability with every guard on the hot paths disabled *)
  let programs = List.map Litmus.program Corpus.all in
  let macro () =
    List.iter (fun p -> ignore (Interp.behaviours p)) programs
  in
  macro ();
  (* warm-up *)
  let wa = ref 0. and wb = ref 0. in
  for _ = 1 to 5 do
    let _, w = time macro in
    wa := !wa +. w;
    let _, w = time macro in
    wb := !wb +. w
  done;
  let ratio = Float.max (!wa /. !wb) (!wb /. !wa) in
  Fmt.pr "  %.4fs vs %.4fs, ratio %.3f@." !wa !wb ratio;
  claim "interleaved A/A macro runs within 1.25x" (ratio < 1.25)

(* ------------------------------------------------------------------ *)
(* Bechamel timing                                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  let sb = Litmus.program Corpus.sb in
  let fig1_o = Litmus.program Corpus.fig1_original in
  let fig1_t = Litmus.program Corpus.fig1_transformed in
  let fig1_uni = Denote.joint_universe [ fig1_o; fig1_t ] in
  let fig1_tso = Denote.traceset ~universe:fig1_uni ~max_len:10 fig1_o in
  let fig1_tst = Denote.traceset ~universe:fig1_uni ~max_len:10 fig1_t in
  let fig3a = Litmus.program Corpus.fig3_a in
  let optimise_spec =
    Result.get_ok
      (Safeopt_opt.Pipeline.parse
         "constprop;copyprop;redundancy;dead-moves;normalise")
  in
  let oota = Litmus.program Corpus.oota in
  let oota_ts = Denote.traceset ~universe:[ 0; 42 ] ~max_len:8 oota in
  [
    Test.make_grouped ~name:"figures"
      [
        t "e1_intro_behaviours" (fun () ->
            Interp.behaviours (Litmus.program Corpus.intro_racy));
        t "e2_fig1_elimination_check" (fun () ->
            Safeopt_core.Elimination.is_elimination vol0 ~original:fig1_tso
              ~universe:fig1_uni ~transformed:fig1_tst);
        t "e3_fig2_reorder_via_closure" (fun () ->
            Safeopt_core.Reorder.is_reordering_of_oracle vol0
              ~mem:(fun tr ->
                Safeopt_core.Elimination.is_member vol0
                  ~original:fig2_original_ts ~universe:[ 0; 1 ] tr)
              ~transformed:fig2_transformed_ts);
        t "e4_fig3_pipeline" (fun () ->
            Safeopt_opt.Passes.eliminate_reads_across_acquires
              (Safeopt_opt.Passes.introduce_irrelevant_reads fig3a));
        t "e5_matrix" (fun () ->
            ( Safeopt_core.Reorder.matrix ~same_location:false,
              Safeopt_core.Reorder.matrix ~same_location:true ));
        t "e6_fig4_depermute" (fun () ->
            Safeopt_core.Reorder.de_permutes vol0 fig4_f fig4_t'
              ~mem:(fun tr -> Traceset.mem tr fig4_t_bar));
        t "e7_fig5_unelimination" (fun () ->
            Safeopt_core.Unelimination.construct_from_traceset fig5_vol
              ~original:fig5_original_ts ~universe:[ 0; 1 ] fig5_i');
        t "e8_oota_origins" (fun () ->
            Safeopt_core.Origin.traceset_has_origin 42 oota_ts);
        t "e9_sec4_elimination" (fun () -> e9_check ());
        t "e12_tso_sb" (fun () -> Model.weak_behaviours Model.Tso sb);
        t "e13_pso_mp" (fun () ->
            Model.weak_behaviours Model.Pso (Litmus.program Corpus.mp));
        t "e14_robust_sb" (fun () -> Safeopt_model.Robustness.enforce sb);
      ];
    Test.make_grouped ~name:"scaling"
      (List.concat_map
         (fun n ->
           let p = writer_reader_program n in
           [
             t (Printf.sprintf "behaviours_%dt" n) (fun () ->
                 Interp.behaviours p);
             t (Printf.sprintf "drf_%dt" n) (fun () -> Interp.is_drf p);
           ])
         [ 1; 2; 3 ]);
    Test.make_grouped ~name:"por_ablation"
      (List.concat_map
         (fun (n, k) ->
           let p = private_work_program n k in
           [
             t (Printf.sprintf "full_%dt_%dp" n k) (fun () ->
                 Explorer.count_states (full p));
             t (Printf.sprintf "por_%dt_%dp" n k) (fun () ->
                 Interp.count_states p);
           ])
         [ (2, 2); (3, 2) ]);
    Test.make_grouped ~name:"infrastructure"
      [
        t "parse_corpus" (fun () -> List.map Litmus.program Corpus.all);
        t "litmus_sb_check" (fun () -> Litmus.check Corpus.sb);
        t "optimise_pipeline" (fun () ->
            (Safeopt_opt.Pipeline.run optimise_spec
               (Litmus.program Corpus.mp_locked))
              .Safeopt_opt.Pipeline.final);
      ];
  ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  hr "Bechamel timings (ns per run, OLS on monotonic clock)";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        List.map (fun instance -> Analyze.all ols instance raw) instances
      in
      let results = Analyze.merge ols instances results in
      Hashtbl.iter
        (fun _instance tbl ->
          let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
          List.sort (fun (a, _) (b, _) -> String.compare a b) rows
          |> List.iter (fun (name, ols_result) ->
                 match Analyze.OLS.estimates ols_result with
                 | Some [ est ] -> Fmt.pr "  %-44s %14.1f ns@." name est
                 | _ -> Fmt.pr "  %-44s (no estimate)@." name))
        results)
    (bechamel_tests ())

let () =
  (* `dune exec bench/main.exe -- explore` runs just the exploration
     benchmark (and writes BENCH_explore.json; `explore-quick` is the
     low-rep CI mode, comparable through rate fields); `-- pipeline` (or
     `pipeline-quick`, the CI smoke mode) just the pass-manager one
     (BENCH_pipeline.json); `-- parallel [jobs]` (or `parallel-quick
     [jobs]`) the sequential-vs-parallel comparison
     (BENCH_parallel.json); `-- refine` (or `refine-quick`) the
     validator-ladder differential and scaling comparison
     (BENCH_refine.json); `-- rmw` the lock-free atomic pack gates
     (BENCH_rmw.json); `-- portability` (or `portability-quick`) the
     pass x memory-model matrix (BENCH_portability.json); `--
     obs-overhead` the disabled-telemetry cost guard; the default runs
     the full reproduction suite.  Every mode exits 1 when a claim
     reads MISMATCH. *)
  (match Sys.argv with
  | [| _; "explore" |] -> explore_bench ()
  | [| _; "explore-quick" |] -> explore_bench ~quick:true ()
  | [| _; "obs-overhead" |] -> obs_overhead ()
  | [| _; "pipeline" |] -> pipeline_bench ()
  | [| _; "pipeline-quick" |] -> pipeline_bench ~quick:true ()
  | [| _; "parallel" |] -> parallel_bench ~jobs:4 ()
  | [| _; "parallel"; j |] -> parallel_bench ~jobs:(int_of_string j) ()
  | [| _; "parallel-quick" |] -> parallel_bench ~quick:true ~jobs:2 ()
  | [| _; "parallel-quick"; j |] ->
      parallel_bench ~quick:true ~jobs:(int_of_string j) ()
  | [| _; "refine" |] -> refine_bench ()
  | [| _; "refine-quick" |] -> refine_bench ~quick:true ()
  | [| _; "rmw" |] -> rmw_bench ()
  | [| _; "portability" |] -> portability_bench ()
  | [| _; "portability-quick" |] -> portability_bench ~quick:true ()
  | _ ->
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      e7 ();
      e8 ();
      e9 ();
      e10 ();
      e11 ();
      e12 ();
      e13 ();
      e14 ();
      p1 ();
      p2 ();
      explore_bench ();
      pipeline_bench ();
      parallel_bench ~jobs:4 ();
      refine_bench ();
      rmw_bench ();
      portability_bench ();
      run_bechamel ();
      Fmt.pr "@.done.@.");
  exit_on_mismatch ()
