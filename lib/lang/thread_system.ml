open Safeopt_trace
module System = Safeopt_exec.System

type state = {
  tid : Thread_id.t;
  started : bool;
  fuel : int option;
  config : Semantics.config;
}

let rec stmt_has_loop = function
  | Ast.While _ -> true
  | Ast.Block l -> List.exists stmt_has_loop l
  | Ast.If (_, s1, s2) -> stmt_has_loop s1 || stmt_has_loop s2
  | Ast.Store _ | Ast.Load _ | Ast.Move _ | Ast.Lock _ | Ast.Unlock _
  | Ast.Skip | Ast.Print _ | Ast.Atomic _ ->
      false

let has_loop p = List.exists (List.exists stmt_has_loop) p.Ast.threads

(* Starts, and accesses to locations that only one thread mentions.
   The set of shared locations is computed on first use: the
   store-buffer machines, the deadlock search, the execution streams
   and the sampler never ask.  A system is explored by one domain at a
   time (System.t), so a plain [lazy] is enough. *)
let local_actions p =
  let shared =
    lazy
      (fst
         (List.fold_left
            (fun (shared, seen) fv ->
              Location.Set.(union shared (inter seen fv), union seen fv))
            (Location.Set.empty, Location.Set.empty)
            (List.map Ast.fv_thread p.Ast.threads)))
  in
  function
  | Action.Start _ -> true
  | a -> (
      match Action.location a with
      | Some l -> not (Location.Set.mem l (Lazy.force shared))
      | None -> false)

let make ?(fuel = 64) p =
  let fuel = if has_loop p then Some fuel else None in
  let initial =
    List.mapi
      (fun tid thread ->
        { tid; started = false; fuel; config = Semantics.initial thread })
      p.Ast.threads
  in
  let spend st = match st.fuel with Some f -> Some (f - 1) | None -> None in
  let steps st =
    if not st.started then
      [ System.Emit (Action.Start st.tid, { st with started = true }) ]
    else if st.fuel = Some 0 then []
    else
      match Semantics.next st.config with
      | Semantics.Done | Semantics.Diverged -> []
      | Semantics.Write (l, v, c) ->
          [ System.Emit
              (Action.Write (l, v), { st with config = c; fuel = spend st }) ]
      | Semantics.Read (l, k) ->
          [ System.Read
              (l, fun v -> Some { st with config = k v; fuel = spend st }) ]
      | Semantics.Rmw (l, k) ->
          [ System.Rmw
              ( l,
                fun v ->
                  let w, c = k v in
                  [ (w, { st with config = c; fuel = spend st }) ] ) ]
      | Semantics.Lock (m, c) ->
          [ System.Emit
              (Action.Lock m, { st with config = c; fuel = spend st }) ]
      | Semantics.Unlock (m, c) ->
          [ System.Emit
              (Action.Unlock m, { st with config = c; fuel = spend st }) ]
      | Semantics.Output (v, c) ->
          [ System.Emit
              (Action.External v, { st with config = c; fuel = spend st }) ]
  in
  let key st =
    System.encode
      (st.tid, st.started, st.fuel, Semantics.canonical st.config)
  in
  { System.initial; steps; key; local = local_actions p }
