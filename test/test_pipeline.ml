(* The pass manager: registry, spec parsing, the driver's differential
   validation, and the two headline properties —

   - any random pipeline over the {e safe} pass set preserves the DRF
     guarantee on random programs (the tool-level reading of Lemma 5's
     composition of Theorems 1–4), and
   - the mutation control [unsafe-store-release] is rejected with a
     concrete race witness (the validator is not vacuous). *)

open Safeopt_lang
open Safeopt_opt
open Safeopt_gen

let program_t = Alcotest.testable (Fmt.of_to_string Pp.program_to_string)
    Ast.equal_program

let is_prefix ~affix s =
  String.length s >= String.length affix
  && String.sub s 0 (String.length affix) = affix

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- registry and spec parsing ---------------------------------------- *)

let test_registry_names_unique () =
  let names = List.map (fun (p : Pass.t) -> p.Pass.name) Pipeline.registry in
  Alcotest.(check int)
    "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_aliases () =
  List.iter
    (fun (alias, canonical) ->
      match (Pipeline.find alias, Pipeline.find canonical) with
      | Some a, Some c ->
          Alcotest.(check string) alias c.Pass.name a.Pass.name
      | _ -> Alcotest.failf "alias %s or target %s missing" alias canonical)
    [ ("cse", "redundancy"); ("dse", "dead-stores"); ("load-hoist", "read-intro") ]

let test_parse_spec () =
  match Pipeline.parse "cse; dse ;load-hoist*" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check (list (pair string bool)))
        "parsed steps"
        [ ("redundancy", false); ("dead-stores", false); ("read-intro", true) ]
        (List.map
           (fun { Pipeline.pass; fixpoint } -> (pass.Pass.name, fixpoint))
           spec)

let test_parse_unknown () =
  match Pipeline.parse "cse;no-such-pass" with
  | Error e ->
      Alcotest.(check bool)
        "error names the pass" true
        (is_infix ~affix:"no-such-pass" e)
  | Ok _ -> Alcotest.fail "unknown pass accepted"

let test_parse_empty () =
  Alcotest.(check bool)
    "empty spec rejected" true
    (Result.is_error (Pipeline.parse "  ;  "))

(* --- dead stores across branches -------------------------------------- *)

let test_dead_stores_cfg () =
  (* both branch stores are overwritten by the post-join store on every
     path; the final store must survive *)
  let t0 =
    [
      Ast.Move ("r1", Ast.Nat 1);
      Ast.If (Ast.Eq (Ast.Reg "r1", Ast.Nat 1),
        Ast.Store ("x", "r1"),
        Ast.Store ("x", "r1"));
      Ast.Store ("x", "r1");
    ]
  in
  let p = Ast.program [ t0 ] in
  let p', removed = Passes.dead_stores_cfg p in
  Alcotest.(check int) "two stores removed" 2 (List.length removed);
  Alcotest.check program_t "final store survives"
    (Ast.program
       [
         [
           Ast.Move ("r1", Ast.Nat 1);
           Ast.If (Ast.Eq (Ast.Reg "r1", Ast.Nat 1), Ast.Skip, Ast.Skip);
           Ast.Store ("x", "r1");
         ];
       ])
    p'

let test_dead_stores_sync_window () =
  (* an unlock between the stores publishes the first one: not dead *)
  let t0 =
    [
      Ast.Move ("r1", Ast.Nat 1);
      Ast.Store ("x", "r1");
      Ast.Unlock "m";
      Ast.Store ("x", "r1");
    ]
  in
  let p = Ast.program [ [ Ast.Lock "m" ] @ t0 ] in
  let p', removed = Passes.dead_stores_cfg p in
  Alcotest.(check int) "nothing removed" 0 (List.length removed);
  Alcotest.check program_t "unchanged" p p'

let test_dead_stores_volatile () =
  let t0 = [ Ast.Move ("r1", Ast.Nat 1); Ast.Store ("v", "r1");
             Ast.Store ("v", "r1") ] in
  let p = Ast.program ~volatile:[ "v" ] [ t0 ] in
  let _, removed = Passes.dead_stores_cfg p in
  Alcotest.(check int) "volatile stores kept" 0 (List.length removed)

(* --- provenance -------------------------------------------------------- *)

let test_provenance_sites () =
  (* the dse pass reports one site per removed store, tagged E-WBW *)
  let t0 =
    [ Ast.Move ("r1", Ast.Nat 1); Ast.Store ("x", "r1");
      Ast.Store ("x", "r1") ]
  in
  let p = Ast.program [ t0 ] in
  let pass = Option.get (Pipeline.find "dse") in
  let r = pass.Pass.run p in
  Alcotest.(check int) "one site" 1 (List.length r.Pass.sites);
  let site = List.hd r.Pass.sites in
  Alcotest.(check bool)
    "rule tag mentions E-WBW" true
    (is_prefix ~affix:"E-WBW" site.Pass.site_rule)

(* --- the mutation test ------------------------------------------------- *)

let mutation_target =
  Ast.program
    [
      [ Ast.Lock "m"; Ast.Move ("r0", Ast.Nat 1); Ast.Store ("data", "r0");
        Ast.Unlock "m" ];
      [ Ast.Lock "m"; Ast.Load ("r1", "data"); Ast.Unlock "m";
        Ast.Print "r1" ];
    ]

let mutation_caught ?validator () =
  let spec =
    match Pipeline.parse "unsafe-store-release" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let o = Pipeline.run ~validate_each:true ?validator spec mutation_target in
  match o.Pipeline.failure with
  | None -> Alcotest.fail "unsound pass not rejected"
  | Some (name, w) ->
      Alcotest.(check string) "failing pass named" "unsafe-store-release" name;
      Alcotest.check program_t "witness original" mutation_target
        w.Safeopt_core.Witness.original;
      Alcotest.(check bool)
        "witness transformed differs" false
        (Ast.equal_program mutation_target w.Safeopt_core.Witness.transformed);
      (* the evidence is a concrete racy interleaving of the transformed
         program — the strongest possible counterexample *)
      (match w.Safeopt_core.Witness.evidence with
      | Safeopt_core.Witness.Race_introduced _ -> ()
      | e ->
          Alcotest.failf "expected a race witness, got %a"
            Safeopt_core.Witness.pp_evidence e);
      (* the pipeline rejects the output: the final program is the input *)
      Alcotest.check program_t "output rejected" mutation_target
        o.Pipeline.final

let test_mutation_caught = mutation_caught ~validator:Validate.Exhaustive

(* The default validator climbs the ladder; it must reject the pass too,
   with the same kind of witness. *)
let test_mutation_caught_default () = mutation_caught ()

let test_mutation_unvalidated_slips_through () =
  (* without --validate-each the unsound rewrite goes through — the
     validation really is what catches it *)
  let spec = Result.get_ok (Pipeline.parse "unsafe-store-release") in
  let o = Pipeline.run ~validate_each:false spec mutation_target in
  Alcotest.(check bool) "no failure recorded" true
    (Option.is_none o.Pipeline.failure);
  Alcotest.(check bool) "program was mutated" false
    (Ast.equal_program mutation_target o.Pipeline.final)

(* --- random safe pipelines preserve the DRF guarantee ------------------ *)

let rand () = Random.State.make [| 0x5afe0; 42 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

let spec_gen =
  let open QCheck2.Gen in
  let step =
    map2
      (fun name fixpoint ->
        { Pipeline.pass = Option.get (Pipeline.find name); fixpoint })
      (oneofl Pipeline.safe_names) bool
  in
  list_size (int_range 1 4) step

let print_case (spec, p) =
  Fmt.str "pipeline: %a@.%s" Pipeline.pp_spec spec (Generators.print_program p)

let safe_pipelines_validate =
  to_alcotest
    (QCheck2.Test.make ~name:"random safe pipelines preserve behaviours and DRF"
       ~count:300 ~print:print_case
       QCheck2.Gen.(pair spec_gen Generators.program)
       (fun (spec, p) ->
         let o =
           Pipeline.run ~validate_each:true ~validator:Validate.Exhaustive
             spec p
         in
         Option.is_none o.Pipeline.failure))

let () =
  Alcotest.run "pipeline"
    [
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick test_registry_names_unique;
          Alcotest.test_case "aliases" `Quick test_aliases;
        ] );
      ( "parse",
        [
          Alcotest.test_case "spec" `Quick test_parse_spec;
          Alcotest.test_case "unknown pass" `Quick test_parse_unknown;
          Alcotest.test_case "empty" `Quick test_parse_empty;
        ] );
      ( "dead-stores",
        [
          Alcotest.test_case "across branches" `Quick test_dead_stores_cfg;
          Alcotest.test_case "sync window" `Quick test_dead_stores_sync_window;
          Alcotest.test_case "volatile kept" `Quick test_dead_stores_volatile;
          Alcotest.test_case "provenance sites" `Quick test_provenance_sites;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "unsound pass caught with witness" `Quick
            test_mutation_caught;
          Alcotest.test_case "caught under the default validator" `Quick
            test_mutation_caught_default;
          Alcotest.test_case "slips through unvalidated" `Quick
            test_mutation_unvalidated_slips_through;
        ] );
      ("properties", [ safe_pipelines_validate ]);
    ]
