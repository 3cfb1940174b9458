open Safeopt_exec

type verdict = {
  original_drf : bool;
  transformed_drf : bool;
  behaviours_included : bool;
  relation_holds : bool;
  counterexample : Behaviour.t option;
}

let pp_verdict ppf v =
  Fmt.pf ppf
    "@[<v>original DRF: %b@ transformed DRF: %b@ behaviours included: %b@ \
     relation holds: %b%a@]"
    v.original_drf v.transformed_drf v.behaviours_included v.relation_holds
    Fmt.(
      option (fun ppf b ->
          pf ppf "@ new behaviour: %a" Behaviour.pp b))
    v.counterexample

let drf_guarantee_ok v =
  (not (v.original_drf && v.relation_holds))
  || (v.behaviours_included && v.transformed_drf)

let behaviour_subset b1 b2 =
  Behaviour.Set.fold
    (fun b acc ->
      match acc with
      | Some _ -> acc
      | None -> if Behaviour.Set.mem b b2 then None else Some b)
    b1 None

let check_with ~relation ?(max_states = Explorer.default_max_states) vol
    ~original ~transformed =
  let b_o, original_drf =
    Explorer.behaviours_and_drf ~max_states vol
      (Traceset_system.make original)
  in
  let b_t, transformed_drf =
    Explorer.behaviours_and_drf ~max_states vol
      (Traceset_system.make transformed)
  in
  let counterexample = behaviour_subset b_t b_o in
  {
    original_drf;
    transformed_drf;
    behaviours_included = Option.is_none counterexample;
    relation_holds = relation ();
    counterexample;
  }

let check_elimination ?proper ?max_states vol ~original ~transformed ~universe
    =
  check_with ?max_states vol ~original ~transformed ~relation:(fun () ->
      Elimination.is_elimination ?proper vol ~original ~universe ~transformed)

let check_reordering ?max_states vol ~original ~transformed =
  check_with ?max_states vol ~original ~transformed ~relation:(fun () ->
      Reorder.is_reordering vol ~original ~transformed)
