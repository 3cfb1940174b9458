open Safeopt_trace
open Safeopt_lang

(* --- Constant propagation ------------------------------------------- *)

module Cenv = struct
  type t = int Reg.Map.t

  let join a b =
    Reg.Map.merge
      (fun _ x y ->
        match (x, y) with Some v, Some w when v = w -> Some v | _ -> None)
      a b

  let kill_assigned assigned env =
    Reg.Set.fold (fun r env -> Reg.Map.remove r env) assigned env
end

let rec assigned_regs_stmt = function
  | Ast.Load (r, _) | Ast.Move (r, _) | Ast.Atomic (r, _, _) ->
      Reg.Set.singleton r
  | Ast.Store _ | Ast.Lock _ | Ast.Unlock _ | Ast.Skip | Ast.Print _ ->
      Reg.Set.empty
  | Ast.Block l -> assigned_regs_thread l
  | Ast.If (_, s1, s2) ->
      Reg.Set.union (assigned_regs_stmt s1) (assigned_regs_stmt s2)
  | Ast.While (_, s) -> assigned_regs_stmt s

and assigned_regs_thread l =
  List.fold_left
    (fun acc s -> Reg.Set.union acc (assigned_regs_stmt s))
    Reg.Set.empty l

let cp_operand env = function
  | Ast.Reg r as o -> (
      match Reg.Map.find_opt r env with Some c -> Ast.Nat c | None -> o)
  | Ast.Nat _ as o -> o

let cp_test env = function
  | Ast.Eq (a, b) -> Ast.Eq (cp_operand env a, cp_operand env b)
  | Ast.Ne (a, b) -> Ast.Ne (cp_operand env a, cp_operand env b)

let rec cp_stmt env (s : Ast.stmt) : Ast.stmt * Cenv.t =
  match s with
  | Ast.Move (r, o) -> (
      let o = cp_operand env o in
      match o with
      | Ast.Nat i -> (Ast.Move (r, o), Reg.Map.add r i env)
      | Ast.Reg _ -> (Ast.Move (r, o), Reg.Map.remove r env))
  | Ast.Load (r, l) -> (Ast.Load (r, l), Reg.Map.remove r env)
  | Ast.Atomic (r, l, k) ->
      (* Substituting a known-constant operand never changes the values
         the RMW writes; the destination register takes a memory value,
         so it leaves the constant environment. *)
      let k =
        match k with
        | Ast.Cas (e, d) -> Ast.Cas (cp_operand env e, cp_operand env d)
        | Ast.Faa o -> Ast.Faa (cp_operand env o)
        | Ast.Xchg o -> Ast.Xchg (cp_operand env o)
      in
      (Ast.Atomic (r, l, k), Reg.Map.remove r env)
  | Ast.Store _ | Ast.Lock _ | Ast.Unlock _ | Ast.Skip | Ast.Print _ ->
      (s, env)
  | Ast.Block l ->
      let l', env' = cp_thread env l in
      (Ast.Block l', env')
  | Ast.If (t, s1, s2) ->
      let t = cp_test env t in
      let s1', env1 = cp_stmt env s1 in
      let s2', env2 = cp_stmt env s2 in
      (Ast.If (t, s1', s2'), Cenv.join env1 env2)
  | Ast.While (t, body) ->
      let inv = Cenv.kill_assigned (assigned_regs_stmt body) env in
      let t = cp_test inv t in
      let body', _ = cp_stmt inv body in
      (Ast.While (t, body'), inv)

and cp_thread env = function
  | [] -> ([], env)
  | s :: rest ->
      let s', env' = cp_stmt env s in
      let rest', env'' = cp_thread env' rest in
      (s' :: rest', env'')

let constant_propagation (p : Ast.program) =
  {
    p with
    Ast.threads =
      List.map (fun t -> fst (cp_thread Reg.Map.empty t)) p.Ast.threads;
  }

(* --- Copy propagation ------------------------------------------------ *)

module Penv = struct
  (* r -> r': uses of r may be replaced by r'. *)
  type t = Reg.t Reg.Map.t

  let resolve env r = Option.value ~default:r (Reg.Map.find_opt r env)

  let kill r env =
    Reg.Map.filter (fun tgt src -> (not (Reg.equal tgt r)) && not (Reg.equal src r)) env

  let join a b =
    Reg.Map.merge
      (fun _ x y ->
        match (x, y) with
        | Some v, Some w when Reg.equal v w -> Some v
        | _ -> None)
      a b

  let kill_assigned assigned env =
    Reg.Set.fold (fun r env -> kill r env) assigned env
end

let pp_operand env = function
  | Ast.Reg r -> Ast.Reg (Penv.resolve env r)
  | Ast.Nat _ as o -> o

let pp_test env = function
  | Ast.Eq (a, b) -> Ast.Eq (pp_operand env a, pp_operand env b)
  | Ast.Ne (a, b) -> Ast.Ne (pp_operand env a, pp_operand env b)

let rec cpy_stmt env (s : Ast.stmt) : Ast.stmt * Penv.t =
  match s with
  | Ast.Move (r, Ast.Reg r') ->
      let src = Penv.resolve env r' in
      let env = Penv.kill r env in
      if Reg.equal src r then (Ast.Move (r, Ast.Reg src), env)
      else (Ast.Move (r, Ast.Reg src), Reg.Map.add r src env)
  | Ast.Move (r, (Ast.Nat _ as o)) -> (Ast.Move (r, o), Penv.kill r env)
  | Ast.Load (r, l) -> (Ast.Load (r, l), Penv.kill r env)
  | Ast.Atomic (r, l, k) ->
      let k =
        match k with
        | Ast.Cas (e, d) -> Ast.Cas (pp_operand env e, pp_operand env d)
        | Ast.Faa o -> Ast.Faa (pp_operand env o)
        | Ast.Xchg o -> Ast.Xchg (pp_operand env o)
      in
      (Ast.Atomic (r, l, k), Penv.kill r env)
  | Ast.Store (l, r) -> (Ast.Store (l, Penv.resolve env r), env)
  | Ast.Print r -> (Ast.Print (Penv.resolve env r), env)
  | Ast.Lock _ | Ast.Unlock _ | Ast.Skip -> (s, env)
  | Ast.Block l ->
      let l', env' = cpy_thread env l in
      (Ast.Block l', env')
  | Ast.If (t, s1, s2) ->
      let t = pp_test env t in
      let s1', env1 = cpy_stmt env s1 in
      let s2', env2 = cpy_stmt env s2 in
      (Ast.If (t, s1', s2'), Penv.join env1 env2)
  | Ast.While (t, body) ->
      let inv = Penv.kill_assigned (assigned_regs_stmt body) env in
      let t = pp_test inv t in
      let body', _ = cpy_stmt inv body in
      (Ast.While (t, body'), inv)

and cpy_thread env = function
  | [] -> ([], env)
  | s :: rest ->
      let s', env' = cpy_stmt env s in
      let rest', env'' = cpy_thread env' rest in
      (s' :: rest', env'')

let copy_propagation (p : Ast.program) =
  {
    p with
    Ast.threads =
      List.map (fun t -> fst (cpy_thread Reg.Map.empty t)) p.Ast.threads;
  }

(* --- Rule-driven fixpoints ------------------------------------------- *)

let fixpoint rules p =
  let rec go p chain_rev seen =
    match Transform.program_rewrites rules p with
    | [] -> (p, List.rev chain_rev)
    | s :: _ ->
        let k = Pp.program_to_string s.Transform.after in
        if List.mem k seen then (p, List.rev chain_rev)
        else go s.Transform.after (s :: chain_rev) (k :: seen)
  in
  go p [] [ Pp.program_to_string p ]

let eliminate_redundancy p = fixpoint Rule.eliminations p

let reorder_fixpoint ~prefer p =
  let rules = List.filter_map Rule.by_name prefer in
  fixpoint rules p

(* --- Fig. 3 pipeline -------------------------------------------------- *)

let introduce_irrelevant_reads (p : Ast.program) =
  {
    p with
    Ast.threads =
      List.map
        (fun thread ->
          let ctx = Ast.regs_thread thread in
          match Rule.i_ir.Rule.rewrites_at p.Ast.volatile ~ctx thread with
          | t' :: _ -> t'
          | [] -> thread)
        p.Ast.threads;
  }

(* Sync summaries for release-then-acquire detection. *)
type sync_summary = {
  has_acq : bool;
  has_rel : bool;
  rel_then_acq : bool;
}

let empty_summary = { has_acq = false; has_rel = false; rel_then_acq = false }

let seq_summary a b =
  {
    has_acq = a.has_acq || b.has_acq;
    has_rel = a.has_rel || b.has_rel;
    rel_then_acq = a.rel_then_acq || b.rel_then_acq || (a.has_rel && b.has_acq);
  }

let rec stmt_summary vol = function
  | Ast.Lock _ -> { empty_summary with has_acq = true }
  | Ast.Unlock _ -> { empty_summary with has_rel = true }
  | Ast.Load (_, l) when Location.Volatile.mem vol l ->
      { empty_summary with has_acq = true }
  | Ast.Store (l, _) when Location.Volatile.mem vol l ->
      { empty_summary with has_rel = true }
  (* An RMW acquires and releases in one action, so a window containing
     one always has a release "followed by" an acquire. *)
  | Ast.Atomic _ -> { has_acq = true; has_rel = true; rel_then_acq = true }
  | Ast.Load _ | Ast.Store _ | Ast.Move _ | Ast.Skip | Ast.Print _ ->
      empty_summary
  | Ast.Block l -> thread_summary vol l
  | Ast.If (_, s1, s2) ->
      let a = stmt_summary vol s1 and b = stmt_summary vol s2 in
      {
        has_acq = a.has_acq || b.has_acq;
        has_rel = a.has_rel || b.has_rel;
        rel_then_acq = a.rel_then_acq || b.rel_then_acq;
      }
  | Ast.While (_, s) ->
      let a = stmt_summary vol s in
      {
        a with
        rel_then_acq = a.rel_then_acq || (a.has_rel && a.has_acq);
      }

and thread_summary vol l =
  List.fold_left (fun acc s -> seq_summary acc (stmt_summary vol s)) empty_summary l

(* E-RAR whose window may contain acquires (and releases, as long as no
   release is followed by an acquire) — Definition 1's actual
   interference condition. *)
let e_rar_across_acquires =
  {
    Rule.name = "E-RAR-ACQ";
    descr = "r1:=x; S; r2:=x ~> r1:=x; S; r2:=r1  (S may acquire)";
    rewrites_at =
      (fun vol ~ctx:_ l ->
        match l with
        | Ast.Load (r1, x) :: rest when not (Location.Volatile.mem vol x) ->
            let rec windows middle_rev = function
              | [] -> []
              | last :: after -> (
                  let middle = List.rev middle_rev in
                  let continue = windows (last :: middle_rev) after in
                  match last with
                  | Ast.Load (r2, x') when Location.equal x x' ->
                      let locs, regs = Rule.names_of_run middle in
                      let summary = thread_summary vol middle in
                      if
                        (not summary.rel_then_acq)
                        && (not (Location.Set.mem x locs))
                        && (not (Reg.Set.mem r1 regs))
                        && not (Reg.Set.mem r2 regs)
                      then
                        (Ast.Load (r1, x)
                         :: middle
                         @ (Ast.Move (r2, Ast.Reg r1) :: after))
                        :: continue
                      else continue
                  | _ -> continue)
            in
            windows [] rest
        | _ -> []);
  }

let eliminate_reads_across_acquires p =
  fst (fixpoint [ e_rar_across_acquires ] p)

(* --- Load/store reordering (R-RW as a pass) --------------------------- *)

(* Hoist a store above an unrelated load it follows: [r := x; y := r']
   becomes [y := r'; r := x] when the locations differ, neither is
   volatile and the store's register is not the load's target.  Each
   swap is a Fig. 11 R-RW reordering (plus a silent move commutation
   when the stored value is a desugared constant), so the pass is
   SC-safe (Theorem 4) — but its output issues a store followed by a
   load, exactly the pair the store buffer relaxes, so it is not
   portable to TSO/PSO: on load buffering it manufactures the
   forbidden r1 = r2 = 1 outcome.  The portability matrix pins this. *)
let reorder_load_store (p : Ast.program) =
  let vol = p.Ast.volatile in
  let nv x = not (Location.Volatile.mem vol x) in
  let rec swap_list = function
    | Ast.Load (r, x) :: Ast.Store (y, r') :: rest
      when nv x && nv y
           && (not (Location.equal x y))
           && not (Reg.equal r r') ->
        Ast.Store (y, r') :: swap_list (Ast.Load (r, x) :: rest)
    | Ast.Load (r, x) :: Ast.Move (t, o) :: Ast.Store (y, t') :: rest
      when Reg.equal t t'
           && (not (Reg.equal r t))
           && (match o with
              | Ast.Reg s -> not (Reg.equal s r)
              | Ast.Nat _ -> true)
           && nv x && nv y
           && not (Location.equal x y) ->
        Ast.Move (t, o) :: Ast.Store (y, t')
        :: swap_list (Ast.Load (r, x) :: rest)
    | s :: rest -> swap_stmt s :: swap_list rest
    | [] -> []
  and swap_stmt = function
    | Ast.Block l -> Ast.Block (swap_list l)
    | Ast.If (t, s1, s2) -> Ast.If (t, swap_stmt s1, swap_stmt s2)
    | Ast.While (t, s) -> Ast.While (t, swap_stmt s)
    | s -> s
  in
  { p with Ast.threads = List.map swap_list p.Ast.threads }

(* --- Dead-code elimination (liveness-driven) -------------------------- *)

(* Generic backward sweep: [kill s live_out] says whether to drop the
   statement.  The live-out used for each statement is computed on the
   already-transformed tail, which is sound (removals only delete
   uses, so liveness shrinks monotonically). *)
let rec dce_thread ~kill (l : Ast.thread) (live_out : Reg.Set.t) : Ast.thread =
  match l with
  | [] -> []
  | s :: rest ->
      let rest' = dce_thread ~kill rest live_out in
      let live_after_s = Liveness.thread rest' live_out in
      if kill s live_after_s then rest'
      else dce_stmt ~kill s live_after_s :: rest'

and dce_stmt ~kill (s : Ast.stmt) (live_out : Reg.Set.t) : Ast.stmt =
  match s with
  | Ast.Block l -> Ast.Block (dce_thread ~kill l live_out)
  | Ast.If (t, s1, s2) ->
      Ast.If (t, dce_stmt ~kill s1 live_out, dce_stmt ~kill s2 live_out)
  | Ast.While (t, body) ->
      (* conservative: anything live into the loop stays live inside *)
      let inside =
        Reg.Set.union live_out (Liveness.stmt (Ast.While (t, body)) live_out)
      in
      Ast.While (t, dce_stmt ~kill body inside)
  | _ -> s

let dce ~kill (p : Ast.program) =
  {
    p with
    Ast.threads =
      List.map (fun t -> dce_thread ~kill t Reg.Set.empty) p.Ast.threads;
  }

let dead_moves p = dce ~kill:Liveness.dead_move p

(* Only plain loads: Definition 1 eliminates an irrelevant read, and a
   volatile read is an acquire, which no clause of it eliminates. *)
let dead_loads p =
  let plain = function
    | Ast.Load (_, l) -> not (Location.Volatile.mem p.Ast.volatile l)
    | _ -> false
  in
  dce ~kill:(fun s live -> plain s && Liveness.dead_load s live) p

(* --- Dead-store elimination across branches (CFG dataflow) ------------ *)

(* E-WBW strengthened with control-flow facts: the syntactic rule only
   fires when the overwriting store is a *statement* in the same block;
   the CFG version removes a store when {e every} path from it reaches
   another store of the same location before any read of it, any
   synchronisation (lock, unlock, volatile access), or thread exit.
   The removal of each such store is an Overwritten_write elimination
   (Definition 1 clause 5) on every trace, so Theorem 3 applies; the
   register side conditions of the syntactic rule are unnecessary
   because the statement is deleted, not substituted. *)

module Overwrite_lattice = struct
  type t = Location.Set.t

  let equal = Location.Set.equal
  let join = Location.Set.inter (* must: overwritten on every path *)

  let pp ppf s =
    Fmt.(braces (list ~sep:comma Location.pp)) ppf (Location.Set.elements s)
end

module Overwrite_solver = Safeopt_analysis.Dataflow.Make (Overwrite_lattice)

(* Backward transfer: the set of locations every path from this point
   overwrites before observing them.  Synchronisation edges clear the
   set (the E-WBW window must be sync-free), exit seeds it empty (a
   final write is visible to other threads). *)
let overwritten_ahead vol (e : Safeopt_analysis.Cfg.edge) dead =
  let open Safeopt_analysis in
  match e.Cfg.instr with
  | Cfg.Store (x, _) ->
      if Location.Volatile.mem vol x then Location.Set.empty
      else Location.Set.add x dead
  | Cfg.Load (_, x) ->
      if Location.Volatile.mem vol x then Location.Set.empty
      else Location.Set.remove x dead
  | Cfg.Lock _ | Cfg.Unlock _ | Cfg.Atomic _ -> Location.Set.empty
  | Cfg.Move _ | Cfg.Print _ | Cfg.Assume _ | Cfg.Nop -> dead

let dead_store_paths vol thread =
  let open Safeopt_analysis in
  let g = Cfg.of_thread thread in
  let facts =
    Overwrite_solver.backward g ~init:Location.Set.empty
      ~transfer:(overwritten_ahead vol)
  in
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.Cfg.instr with
      | Cfg.Store (x, _) when not (Location.Volatile.mem vol x) -> (
          match facts.(e.Cfg.dst) with
          | Some dead when Location.Set.mem x dead -> Some e.Cfg.path
          | _ -> None)
      | _ -> None)
    g.Cfg.edges
  |> List.sort_uniq Cfg.compare_path

(* Navigate a CFG edge path (statement index within a thread or block,
   0/1 for If branches, 0 for a While body) back into the AST. *)
let rec update_stmt_at s path f =
  match (path, s) with
  | [], _ -> f s
  | _, Ast.Block l -> Ast.Block (update_thread_at l path f)
  | 0 :: rest, Ast.If (t, s1, s2) -> Ast.If (t, update_stmt_at s1 rest f, s2)
  | 1 :: rest, Ast.If (t, s1, s2) -> Ast.If (t, s1, update_stmt_at s2 rest f)
  | 0 :: rest, Ast.While (t, body) ->
      Ast.While (t, update_stmt_at body rest f)
  | _ -> s

and update_thread_at l path f =
  match path with
  | i :: rest ->
      List.mapi (fun j s -> if j = i then update_stmt_at s rest f else s) l
  | [] -> l

let dead_stores_cfg (p : Ast.program) =
  let vol = p.Ast.volatile in
  (* One store at a time, to a fixpoint: each removal is individually a
     clause-5 elimination of the *current* program, so the whole pass
     is a chain of semantic eliminations. *)
  let rec thread_fix t sites_rev =
    match dead_store_paths vol t with
    | [] -> (t, List.rev sites_rev)
    | path :: _ -> (
        let removed = ref None in
        let t' =
          update_thread_at t path (fun s ->
              removed := Some s;
              Ast.Skip)
        in
        match !removed with
        | Some s when not (Ast.equal_thread t t') ->
            thread_fix t' ((path, s) :: sites_rev)
        | _ -> (t, List.rev sites_rev))
  in
  let threads, sites =
    List.fold_left
      (fun (threads_rev, sites) (tid, t) ->
        let t', thread_sites = thread_fix t [] in
        ( t' :: threads_rev,
          sites @ List.map (fun (path, s) -> (tid, path, s)) thread_sites ))
      ([], [])
      (List.mapi (fun i t -> (i, t)) p.Ast.threads)
  in
  ({ p with Ast.threads = List.rev threads }, sites)

(* --- Branch folding and normalisation --------------------------------- *)

let const_test = function
  | Ast.Eq (Ast.Nat a, Ast.Nat b) -> Some (a = b)
  | Ast.Ne (Ast.Nat a, Ast.Nat b) -> Some (a <> b)
  | _ -> None

let rec fold_stmt = function
  | Ast.If (t, s1, s2) -> (
      match const_test t with
      | Some true -> fold_stmt s1
      | Some false -> fold_stmt s2
      | None -> Ast.If (t, fold_stmt s1, fold_stmt s2))
  | Ast.While (t, body) -> (
      match const_test t with
      | Some false -> Ast.Skip
      | _ -> Ast.While (t, fold_stmt body))
  | Ast.Block l -> Ast.Block (List.map fold_stmt l)
  | s -> s

let fold_branches (p : Ast.program) =
  { p with Ast.threads = List.map (List.map fold_stmt) p.Ast.threads }

let rec norm_list l = List.concat_map norm_stmt l

and norm_stmt = function
  | Ast.Skip -> []
  | Ast.Block l -> norm_list l
  | Ast.If (t, s1, s2) ->
      [ Ast.If (t, block_of (norm_stmt s1), block_of (norm_stmt s2)) ]
  | Ast.While (t, s) -> [ Ast.While (t, block_of (norm_stmt s)) ]
  | s -> [ s ]

and block_of = function
  | [] -> Ast.Skip
  | [ s ] -> s
  | l -> Ast.Block l

let normalise (p : Ast.program) =
  { p with Ast.threads = List.map norm_list p.Ast.threads }

(* --- Loop unrolling ----------------------------------------------------- *)

let rec unroll_stmt depth = function
  | Ast.While (t, body) ->
      let body = unroll_stmt depth body in
      let rec peel n =
        if n = 0 then Ast.While (t, body)
        else Ast.If (t, Ast.Block [ body; peel (n - 1) ], Ast.Skip)
      in
      peel depth
  | Ast.If (t, s1, s2) ->
      Ast.If (t, unroll_stmt depth s1, unroll_stmt depth s2)
  | Ast.Block l -> Ast.Block (List.map (unroll_stmt depth) l)
  | s -> s

let unroll_loops ~depth (p : Ast.program) =
  { p with Ast.threads = List.map (List.map (unroll_stmt depth)) p.Ast.threads }
