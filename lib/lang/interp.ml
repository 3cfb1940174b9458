open Safeopt_trace
open Safeopt_exec

let behaviours ?fuel ?max_states ?stats p =
  Explorer.behaviours ?max_states ?stats (Thread_system.make ?fuel p)

let find_race ?fuel ?max_states ?stats p =
  Explorer.find_adjacent_race ?max_states ?stats p.Ast.volatile
    (Thread_system.make ?fuel p)

let is_drf ?fuel ?max_states ?stats p =
  Option.is_none (find_race ?fuel ?max_states ?stats p)

let behaviours_and_drf ?fuel ?max_states ?stats p =
  Explorer.behaviours_and_drf ?max_states ?stats p.Ast.volatile
    (Thread_system.make ?fuel p)

let maximal_executions ?fuel ?max_steps ?stats p =
  Explorer.maximal_executions ?max_steps ?stats (Thread_system.make ?fuel p)

let maximal_executions_seq ?fuel ?max_steps ?stats p =
  Explorer.maximal_executions_seq ?max_steps ?stats
    (Thread_system.make ?fuel p)

let count_states ?fuel ?max_states ?stats p =
  Explorer.count_states ?max_states ?stats (Thread_system.make ?fuel p)

let find_deadlock ?fuel ?max_states ?stats p =
  Explorer.find_deadlock ?max_states ?stats (Thread_system.make ?fuel p)

let sample_behaviours ?fuel ?max_actions ~seed ~runs ?stats p =
  Explorer.sample_behaviours ?max_actions ~seed ~runs ?stats
    (Thread_system.make ?fuel p)

let can_output ?fuel ?max_states p v =
  Behaviour.Set.exists
    (fun b -> List.exists (Value.equal v) b)
    (behaviours ?fuel ?max_states p)

let behaviour_strings bs =
  Behaviour.Set.maximal bs
  |> List.map (fun b ->
         match b with
         | [] -> "(no output)"
         | vs ->
             String.concat "; "
               (List.map (fun v -> "print " ^ Value.to_string v) vs))
