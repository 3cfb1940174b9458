open Safeopt_trace
open Safeopt_exec
open Safeopt_lang

let raced_location ?fuel ?max_states p =
  match Interp.find_race ?fuel ?max_states p with
  | None -> None
  | Some i -> (
      (* the witness ends in the adjacent conflicting pair *)
      let n = Interleaving.length i in
      match Action.location (Interleaving.nth i (n - 1)).Interleaving.action with
      | Some l -> Some l
      | None -> None)

let enforce ?fuel ?max_states p =
  let rec go p promoted =
    match raced_location ?fuel ?max_states p with
    | None -> (p, List.rev promoted)
    | Some l ->
        let p' =
          { p with Ast.volatile = Location.Volatile.add l p.Ast.volatile }
        in
        go p' (l :: promoted)
  in
  go p []

let is_robust ?fuel ?max_states p =
  Behaviour.Set.is_empty
    (Memory_model.weak_behaviours ?fuel ?max_states Memory_model.Tso p)
