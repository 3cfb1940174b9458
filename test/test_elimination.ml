open Safeopt_trace
open Safeopt_core
open Helpers

let check_b = Alcotest.(check bool)
let wc = Wildcard.of_trace

let test_check_witness () =
  let wild = [ c (st 0); c (r "x" 1); wild "y"; c (r "x" 1); c (ext 1) ] in
  (* drop the wildcard (irrelevant) and the second read (RaR) *)
  let witness = { Elimination.wild; kept = [ 0; 1; 4 ] } in
  check_b "valid witness" true
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       witness);
  check_b "wrong transformed" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 2; ext 1 ]
       witness);
  (* keeping a wildcard is never valid *)
  check_b "kept wildcard invalid" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; r "y" 0; ext 1 ]
       { Elimination.wild; kept = [ 0; 1; 2; 4 ] });
  (* dropping a non-eliminable index is invalid: the write to z is
     followed by a kept read of z, so it is not a redundant last
     write and no other clause applies *)
  check_b "non-eliminable drop" false
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; r "z" 1; ext 1 ]
       {
         Elimination.wild = wc [ st 0; r "x" 1; w "z" 1; r "z" 1; ext 1 ];
         kept = [ 0; 1; 3; 4 ];
       });
  (* proper mode rejects last-action eliminations *)
  let last_write = wc [ st 0; r "x" 1; ext 1; w "z" 1 ] in
  check_b "last write ok by default" true
    (Elimination.check_witness none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       { Elimination.wild = last_write; kept = [ 0; 1; 2 ] });
  check_b "last write rejected when proper" false
    (Elimination.check_witness ~proper:true none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       { Elimination.wild = last_write; kept = [ 0; 1; 2 ] })

let test_embeddings () =
  let wild = wc [ st 0; r "x" 1; r "x" 1; ext 1 ] in
  (* either read can be the kept one *)
  let embs = Elimination.embeddings none ~transformed:[ st 0; r "x" 1; ext 1 ] ~wild in
  (* only the FIRST read can be kept: the second is redundant-after-
     read, but the first has no earlier licensing action, so skipping
     it is not allowed *)
  Alcotest.(check int) "one embedding" 1 (List.length embs);
  check_b "all valid" true
    (List.for_all
       (fun kept ->
         Elimination.check_witness none
           ~transformed:[ st 0; r "x" 1; ext 1 ]
           { Elimination.wild; kept })
       embs);
  Alcotest.(check (option (list int))) "first embedding"
    (Some [ 0; 1; 3 ])
    (Elimination.trace_elimination_of none
       ~transformed:[ st 0; r "x" 1; ext 1 ]
       ~wild);
  Alcotest.(check (option (list int))) "impossible embedding" None
    (Elimination.trace_elimination_of none
       ~transformed:[ st 0; w "q" 9 ]
       ~wild)

let test_generalisations () =
  let universe = [ 0; 1 ] in
  let belongs_to w = Traceset.belongs_to fig2_original_traceset w ~universe in
  let gens =
    Elimination.generalisations ~belongs_to [ st 0; r "x" 1; w "y" 1 ]
  in
  (* the read can NOT be generalised alone (the write value depends on
     it), so only the concrete trace survives *)
  Alcotest.(check int) "only concrete" 1 (List.length gens);
  let gens2 = Elimination.generalisations ~belongs_to [ st 0; r "x" 1 ] in
  Alcotest.(check int) "read alone generalises" 2 (List.length gens2)

(* Section 4's example: the one-trace program x:=1;print 1;lock;x:=1;unlock
   is an elimination of the longer single-thread program. *)
let test_sec4_tracesets () =
  let orig = Safeopt_lang.Parser.parse_program
      {|thread {
  x := 1;
  r1 := y;
  r2 := x;
  print r2;
  if (r2 != 0) { lock m; x := 2; x := r2; unlock m; }
}|}
  in
  let trans = Safeopt_lang.Parser.parse_program
      {|thread { x := 1; print 1; lock m; x := 1; unlock m; }|}
  in
  let universe = Safeopt_lang.Denote.joint_universe [ orig; trans ] in
  let ts_o = Safeopt_lang.Denote.traceset ~universe ~max_len:12 orig in
  let ts_t = Safeopt_lang.Denote.traceset ~universe ~max_len:12 trans in
  check_b "is elimination" true
    (Elimination.is_elimination none ~original:ts_o ~universe
       ~transformed:ts_t);
  (* and not the other way round: the original has behaviours the
     transformed cannot eliminate its way into (e.g. reading y) *)
  check_b "not an elimination the other way" false
    (Elimination.is_elimination none ~original:ts_t ~universe
       ~transformed:ts_o)

let test_is_member () =
  let universe = [ 0; 1 ] in
  (* [S(0); W[x=1]] is in the elimination closure of fig2's original
     traceset (drop the irrelevant read) — the section-4 step. *)
  check_b "W[x=1] member via irrelevant read" true
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 1; w "x" 1 ]);
  check_b "original trace is a member" true
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 0; r "x" 1; w "y" 1 ]);
  check_b "alien trace is not" false
    (Elimination.is_member none ~original:fig2_original_traceset ~universe
       [ st 0; w "q" 1 ])

let test_negative () =
  (* A transformed traceset with a fresh action cannot be an
     elimination. *)
  let orig = Traceset.of_list [ [ st 0; w "x" 1 ] ] in
  let bad = Traceset.of_list [ [ st 0; w "x" 2 ] ] in
  check_b "fresh write rejected" false
    (Elimination.is_elimination none ~original:orig ~universe:[ 0; 1; 2 ]
       ~transformed:bad);
  (* Dropping a non-eliminable action is rejected: W[x=1] between two
     reads of x cannot be dropped. *)
  let orig2 = Traceset.of_list [ [ st 0; r "x" 0; w "x" 1; r "x" 1 ] ] in
  let bad2 = Traceset.of_list [ [ st 0; r "x" 0; r "x" 1 ] ] in
  check_b "load-bearing write not eliminable" false
    (Elimination.is_elimination none ~original:orig2 ~universe:[ 0; 1 ]
       ~transformed:bad2)

(* --- specification: the exhaustive search -------------------------------- *)

(* The elimination closure as Definition 1 states it, searched the slow
   way: every trace of [T] that has the query as a subsequence, shortest
   first; for each, every generalisation that belongs to [T] by
   enumerating its instances, the concrete trace first; the first of all
   its embeddings.  [find_witness] must return the same witness and the
   indexed oracle the same verdict. *)
module Spec = struct
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun ys -> x :: ys) s

  let belongs_to ts w ~universe =
    Seq.for_all (fun t -> Traceset.mem t ts) (Wildcard.instances ~universe w)

  let generalisations ~belongs_to t =
    List.init (List.length t) Fun.id
    |> List.filter (fun i -> Action.is_read (List.nth t i))
    |> subsets
    |> List.map (fun ws ->
           List.mapi
             (fun i a ->
               match a with
               | Action.Read (l, _) when List.mem i ws -> Wildcard.Wild_read l
               | _ -> Wildcard.Concrete a)
             t)
    |> List.filter belongs_to

  let rec subsequence s t =
    match (s, t) with
    | [], _ -> true
    | _, [] -> false
    | a :: s', b :: t' -> subsequence (if Action.equal a b then s' else s) t'

  (* [generalisations t]: the candidate's generalisations that belong. *)
  let witness vol ~generalisations ~candidates transformed =
    List.filter (subsequence transformed) candidates
    |> List.find_map (fun t ->
           generalisations t
           |> List.find_map (fun wild ->
                  match Elimination.embeddings vol ~transformed ~wild with
                  | kept :: _ -> Some { Elimination.wild; kept }
                  | [] -> None))
end

let witness_t =
  Alcotest.testable
    (Fmt.option Elimination.pp_witness)
    (Option.equal (fun (a : Elimination.witness) b ->
         Wildcard.equal a.wild b.wild && a.kept = b.kept))

(* Every query the Lemma-5 reordering search makes while the refinement
   checker matches one generated thread against its rewrite: the indexed
   oracle's verdict must be the specification's, and [find_witness] must
   return the specification's witness. *)
let agrees_with_spec ((pass : Safeopt_opt.Pass.t), p) =
  let open Safeopt_lang in
  let transformed = (pass.Safeopt_opt.Pass.run p).Safeopt_opt.Pass.program in
  let universe = Denote.joint_universe [ p; transformed ] in
  let vol = p.Ast.volatile in
  List.for_all
    (fun (tid, (torig, ttrans)) ->
      let ts_trans, _ =
        Denote.thread_traces ~max_traces:600 ~universe ~max_len:6 ~tid ttrans
      in
      let ts_orig, _ =
        Denote.thread_traces ~max_traces:600 ~universe
          ~max_len:(7 + Ast.thread_size torig) ~tid torig
      in
      let mem = Elimination.memoised_member vol ~original:ts_orig ~universe in
      let spec = Hashtbl.create 97 in
      let candidates = Traceset.to_list ts_orig in
      let gens = Hashtbl.create 97 in
      let generalisations t =
        match Hashtbl.find_opt gens t with
        | Some g -> g
        | None ->
            let g =
              Spec.generalisations t ~belongs_to:(fun w ->
                  Spec.belongs_to ts_orig w ~universe)
            in
            Hashtbl.add gens t g;
            g
      in
      let belongs_to w = Traceset.belongs_to ts_orig w ~universe in
      let checked t =
        let expected =
          match Hashtbl.find_opt spec t with
          | Some w -> w
          | None ->
              let w = Spec.witness vol ~generalisations ~candidates t in
              Hashtbl.add spec t w;
              Alcotest.check witness_t "find_witness" w
                (Elimination.find_witness vol ~belongs_to ~candidates
                   ~transformed:t);
              w
        in
        let b = mem t in
        if b <> Option.is_some expected then
          QCheck2.Test.fail_reportf "oracle says %b on %a" b Trace.pp t;
        b
      in
      List.iter
        (fun t -> ignore (Reorder.find vol t ~mem:checked))
        (Traceset.to_list ts_trans);
      true)
    (List.mapi (fun tid pair -> (tid, pair))
       (List.combine p.Ast.threads transformed.Ast.threads)
    |> List.filter (fun (_, (a, b)) -> not (Safeopt_lang.Ast.equal_thread a b)))

let differential =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xe11; 5 |])
    (QCheck2.Test.make ~name:"indexed oracle = specification" ~count:300
       ~print:(fun ((pass : Safeopt_opt.Pass.t), p) ->
         Fmt.str "pass: %s@.%s" pass.Safeopt_opt.Pass.name
           (Safeopt_gen.Generators.print_program p))
       QCheck2.Gen.(
         pair (oneofl Safeopt_opt.Pipeline.registry)
           Safeopt_gen.Generators.program)
       agrees_with_spec)

let () =
  Alcotest.run "elimination"
    [
      ( "elimination",
        [
          Alcotest.test_case "witness checking" `Quick test_check_witness;
          Alcotest.test_case "embeddings" `Quick test_embeddings;
          Alcotest.test_case "generalisations" `Quick test_generalisations;
          Alcotest.test_case "section-4 tracesets" `Quick test_sec4_tracesets;
          Alcotest.test_case "closure membership" `Quick test_is_member;
          Alcotest.test_case "negative cases" `Quick test_negative;
        ] );
      ("specification", [ differential ]);
    ]
