open Safeopt_trace
open Helpers

let check_b = Alcotest.(check bool)

let ts = Traceset.of_list [ [ st 0; w "x" 1; r "y" 0 ]; [ st 1; ext 1 ] ]

let test_prefix_closure () =
  check_b "contains empty" true (Traceset.mem [] ts);
  check_b "contains proper prefix" true (Traceset.mem [ st 0; w "x" 1 ] ts);
  check_b "contains full" true (Traceset.mem [ st 0; w "x" 1; r "y" 0 ] ts);
  check_b "does not contain others" false (Traceset.mem [ st 0; r "y" 0 ] ts);
  check_b "prefix closed" true (Traceset.prefix_closed ts);
  Alcotest.(check int) "cardinal counts prefixes" 6 (Traceset.cardinal ts)

let test_wf () =
  check_b "well formed" true (Traceset.well_formed ts);
  let bad = Traceset.of_list [ [ st 0; ul "m" ] ] in
  check_b "unlock-first is not well locked" false (Traceset.well_locked bad);
  let unstarted = Traceset.of_list [ [ w "x" 1 ] ] in
  check_b "not properly started" false (Traceset.properly_started unstarted)

let test_maximal_threads () =
  Alcotest.(check int) "two maximal traces" 2 (List.length (Traceset.maximal ts));
  Alcotest.(check (list int)) "thread ids" [ 0; 1 ] (Traceset.thread_ids ts);
  Alcotest.(check int) "thread 0 traces (non-empty ones)" 3
    (List.length (Traceset.elements_of_thread 0 ts))

let test_belongs_to () =
  let uni = [ 0; 1 ] in
  (* All instances of the relay wildcard trace belong to fig2's
     traceset. *)
  check_b "wildcard relay belongs" true
    (Traceset.belongs_to fig2_original_traceset
       [ c (st 0); wild "x" ] ~universe:uni);
  (* [S(0); R[x=*]; W[y=1]] does not: the write value must match the
     read. *)
  check_b "value-dependent continuation does not belong" false
    (Traceset.belongs_to fig2_original_traceset
       [ c (st 0); wild "x"; c (w "y" 1) ]
       ~universe:uni);
  check_b "concrete member" true
    (Traceset.belongs_to fig2_original_traceset
       (Wildcard.of_trace [ st 0; r "x" 1; w "y" 1 ])
       ~universe:uni);
  check_b "concrete non-member" false
    (Traceset.belongs_to fig2_original_traceset
       (Wildcard.of_trace [ st 0; r "x" 1; w "y" 0 ])
       ~universe:uni)

let test_ops () =
  let ts2 = Traceset.add [ st 2; lk "m" ] ts in
  check_b "added" true (Traceset.mem [ st 2; lk "m" ] ts2);
  check_b "add preserves closure" true (Traceset.prefix_closed ts2);
  check_b "subset" true (Traceset.subset ts ts2);
  check_b "union" true
    (Traceset.equal ts2 (Traceset.union ts ts2));
  Alcotest.(check (list int)) "values" [ 0; 1 ] (Traceset.values ts);
  Alcotest.(check (list string)) "locations" [ "x"; "y" ]
    (Location.Set.elements (Traceset.locations ts));
  let mapped = Traceset.map_traces (fun t -> List.filter Action.is_start t) ts in
  check_b "map re-closes" true (Traceset.prefix_closed mapped)

(* --- the trie against a set of traces ------------------------------------ *)

module Model = Set.Make (Trace)

let model_of traces =
  List.fold_left
    (fun m t -> List.fold_left (fun m p -> Model.add p m) m (Trace.prefixes t))
    (Model.singleton []) traces

let uni = [ 0; 1; 2 ]

(* Wildcard probes: traces with the reads picked by a bit mask made
   wildcards, one per mask.  Probes from a denotation's members often
   belong, so belongs-to meets its positive cases too. *)
let rec probes traces masks =
  match (traces, masks) with
  | t :: ts, mask :: masks ->
      List.mapi
        (fun i a ->
          match a with
          | Action.Read (l, _) when (mask lsr i) land 1 = 1 -> wild l
          | _ -> c a)
        t
      :: probes ts masks
  | _ -> []

let model_belongs m w =
  Seq.for_all (fun t -> Model.mem t m) (Wildcard.instances ~universe:uni w)

let matches_model xs ys masks =
  let s = Traceset.of_list xs and m = model_of xs in
  let s' = List.fold_left (fun s t -> Traceset.add t s) Traceset.empty ys
  and m' = model_of ys in
  let iter_order =
    let acc = ref [] in
    Traceset.iter (fun t -> acc := t :: !acc) s;
    List.rev !acc
  in
  let sorted m =
    List.sort
      (fun a b ->
        match Int.compare (Trace.length a) (Trace.length b) with
        | 0 -> Trace.compare a b
        | c -> c)
      (Model.elements m)
  in
  let all = Model.elements (Model.union m m') in
  Traceset.cardinal s = Model.cardinal m
  && List.for_all (fun t -> Traceset.mem t s = Model.mem t m) all
  && Traceset.to_list s = sorted m
  && iter_order = Model.elements m
  && Traceset.fold List.cons s [] = List.rev (Model.elements m)
  && Traceset.to_list (Traceset.union s s') = sorted (Model.union m m')
  && Traceset.subset s s' = Model.subset m m'
  && Traceset.subset s (Traceset.union s s')
  && Traceset.equal s s' = Model.equal m m'
  && Traceset.equal s (Traceset.of_list (Model.elements m))
  && Traceset.maximal s
     = List.filter
         (fun t -> not (Model.exists (Trace.is_strict_prefix t) m))
         (Model.elements m)
  && List.for_all
       (fun w -> Traceset.belongs_to s w ~universe:uni = model_belongs m w)
       (probes (xs @ ys) masks)

let trie_vs_model =
  let open QCheck2.Gen in
  let traces = list_size (int_range 0 6) Safeopt_gen.Generators.trace in
  (* Values from the small universe, so wildcard probes can belong. *)
  let shrink_values =
    List.map
      (List.map (function
        | Action.Read (l, v) -> Action.Read (l, v mod 3)
        | Action.Write (l, v) -> Action.Write (l, v mod 3)
        | a -> a))
  in
  (* A thread's denotation reads every value of the universe, so its
     members' generalisations belong. *)
  let denoted =
    map
      (fun th ->
        fst
          (Safeopt_lang.Denote.thread_traces ~max_traces:100 ~universe:uni
             ~max_len:5 ~tid:0 th)
        |> Traceset.maximal)
      Safeopt_gen.Generators.thread
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x7e1e |])
    (QCheck2.Test.make ~name:"trie = set of traces" ~count:500
       (quad (map shrink_values traces) (map shrink_values traces) denoted
          (list_repeat 12 (int_bound 255)))
       (fun (xs, ys, ds, masks) -> matches_model (ds @ xs) ys masks))

let () =
  Alcotest.run "traceset"
    [
      ( "traceset",
        [
          Alcotest.test_case "prefix closure" `Quick test_prefix_closure;
          Alcotest.test_case "well-formedness" `Quick test_wf;
          Alcotest.test_case "maximal and threads" `Quick test_maximal_threads;
          Alcotest.test_case "belongs-to" `Quick test_belongs_to;
          Alcotest.test_case "operations" `Quick test_ops;
        ] );
      ("model", [ trie_vs_model ]);
    ]
