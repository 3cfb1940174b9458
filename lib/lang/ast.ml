open Safeopt_trace

type operand = Reg of Reg.t | Nat of int
type test = Eq of operand * operand | Ne of operand * operand

type rmw =
  | Cas of operand * operand
  | Faa of operand
  | Xchg of operand

type stmt =
  | Store of Location.t * Reg.t
  | Load of Reg.t * Location.t
  | Move of Reg.t * operand
  | Lock of Monitor.t
  | Unlock of Monitor.t
  | Skip
  | Print of Reg.t
  | Atomic of Reg.t * Location.t * rmw
  | Block of stmt list
  | If of test * stmt * stmt
  | While of test * stmt

type thread = stmt list
type program = { threads : thread list; volatile : Location.Volatile.t }

let program ?(volatile = []) threads =
  { threads; volatile = Location.Volatile.of_list volatile }

let equal_operand a b =
  match (a, b) with
  | Reg r, Reg r' -> Reg.equal r r'
  | Nat i, Nat i' -> i = i'
  | (Reg _ | Nat _), _ -> false

let equal_test a b =
  match (a, b) with
  | Eq (x, y), Eq (x', y') | Ne (x, y), Ne (x', y') ->
      equal_operand x x' && equal_operand y y'
  | (Eq _ | Ne _), _ -> false

let equal_rmw a b =
  match (a, b) with
  | Cas (e, d), Cas (e', d') -> equal_operand e e' && equal_operand d d'
  | Faa o, Faa o' | Xchg o, Xchg o' -> equal_operand o o'
  | (Cas _ | Faa _ | Xchg _), _ -> false

let rec equal_stmt a b =
  match (a, b) with
  | Store (l, r), Store (l', r') -> Location.equal l l' && Reg.equal r r'
  | Load (r, l), Load (r', l') -> Reg.equal r r' && Location.equal l l'
  | Move (r, o), Move (r', o') -> Reg.equal r r' && equal_operand o o'
  | Lock m, Lock m' | Unlock m, Unlock m' -> Monitor.equal m m'
  | Skip, Skip -> true
  | Print r, Print r' -> Reg.equal r r'
  | Atomic (r, l, k), Atomic (r', l', k') ->
      Reg.equal r r' && Location.equal l l' && equal_rmw k k'
  | Block l, Block l' -> equal_thread l l'
  | If (t, s1, s2), If (t', s1', s2') ->
      equal_test t t' && equal_stmt s1 s1' && equal_stmt s2 s2'
  | While (t, s), While (t', s') -> equal_test t t' && equal_stmt s s'
  | ( ( Store _ | Load _ | Move _ | Lock _ | Unlock _ | Skip | Print _
      | Atomic _ | Block _ | If _ | While _ ),
      _ ) ->
      false

and equal_thread a b = List.equal equal_stmt a b

let equal_program a b =
  List.equal equal_thread a.threads b.threads
  && Location.Volatile.equal a.volatile b.volatile

let rec fv_stmt = function
  | Store (l, _) | Load (_, l) | Atomic (_, l, _) -> Location.Set.singleton l
  | Move _ | Lock _ | Unlock _ | Skip | Print _ -> Location.Set.empty
  | Block l -> fv_thread l
  | If (_, s1, s2) -> Location.Set.union (fv_stmt s1) (fv_stmt s2)
  | While (_, s) -> fv_stmt s

and fv_thread l =
  List.fold_left
    (fun acc s -> Location.Set.union acc (fv_stmt s))
    Location.Set.empty l

let regs_operand = function Reg r -> Reg.Set.singleton r | Nat _ -> Reg.Set.empty

let regs_test = function
  | Eq (a, b) | Ne (a, b) -> Reg.Set.union (regs_operand a) (regs_operand b)

let regs_rmw = function
  | Cas (e, d) -> Reg.Set.union (regs_operand e) (regs_operand d)
  | Faa o | Xchg o -> regs_operand o

let rec regs_stmt = function
  | Store (_, r) | Load (r, _) | Print r -> Reg.Set.singleton r
  | Move (r, o) -> Reg.Set.add r (regs_operand o)
  | Atomic (r, _, k) -> Reg.Set.add r (regs_rmw k)
  | Lock _ | Unlock _ | Skip -> Reg.Set.empty
  | Block l -> regs_thread l
  | If (t, s1, s2) ->
      Reg.Set.union (regs_test t) (Reg.Set.union (regs_stmt s1) (regs_stmt s2))
  | While (t, s) -> Reg.Set.union (regs_test t) (regs_stmt s)

and regs_thread l =
  List.fold_left (fun acc s -> Reg.Set.union acc (regs_stmt s)) Reg.Set.empty l

let rec sync_free_stmt vol = function
  | Store (l, _) | Load (_, l) -> not (Location.Volatile.mem vol l)
  | Move _ | Skip | Print _ -> true
  (* An RMW synchronises whatever its location's volatility. *)
  | Atomic _ -> false
  | Lock _ | Unlock _ -> false
  | Block l -> sync_free_thread vol l
  | If (_, s1, s2) -> sync_free_stmt vol s1 && sync_free_stmt vol s2
  | While (_, s) -> sync_free_stmt vol s

and sync_free_thread vol l = List.for_all (sync_free_stmt vol) l

let consts_operand = function Nat i -> [ i ] | Reg _ -> []

let consts_rmw = function
  | Cas (e, d) -> consts_operand e @ consts_operand d
  | Faa o | Xchg o -> consts_operand o

let rec constants_stmt = function
  | Move (_, Nat i) -> [ i ]
  (* literals an RMW can write to (or compare against) memory *)
  | Atomic (_, _, k) -> consts_rmw k
  | Move (_, Reg _) | Store _ | Load _ | Lock _ | Unlock _ | Skip | Print _ ->
      []
  | Block l -> constants_thread l
  | If (_, s1, s2) -> constants_stmt s1 @ constants_stmt s2
  | While (_, s) -> constants_stmt s

and constants_thread l = List.concat_map constants_stmt l

let constants_program p =
  List.concat_map constants_thread p.threads |> List.sort_uniq Int.compare

let consts_test = function
  | Eq (a, b) | Ne (a, b) -> consts_operand a @ consts_operand b

let rec all_constants_stmt = function
  | Move (_, o) -> consts_operand o
  | Atomic (_, _, k) -> consts_rmw k
  | Store _ | Load _ | Lock _ | Unlock _ | Skip | Print _ -> []
  | Block l -> List.concat_map all_constants_stmt l
  | If (t, s1, s2) ->
      consts_test t @ all_constants_stmt s1 @ all_constants_stmt s2
  | While (t, s) -> consts_test t @ all_constants_stmt s

let all_constants_program p =
  List.concat_map (List.concat_map all_constants_stmt) p.threads
  |> List.sort_uniq Int.compare

let rec stmt_size = function
  | Store _ | Load _ | Move _ | Lock _ | Unlock _ | Skip | Print _ | Atomic _
    ->
      1
  | Block l -> 1 + thread_size l
  | If (_, s1, s2) -> 1 + stmt_size s1 + stmt_size s2
  | While (_, s) -> 1 + stmt_size s

and thread_size l = List.fold_left (fun n s -> n + stmt_size s) 0 l

let program_size p = List.fold_left (fun n t -> n + thread_size t) 0 p.threads

let fresh_reg used =
  let rec go i =
    let r = Printf.sprintf "rt%d" i in
    if Reg.Set.mem r used then go (i + 1) else r
  in
  go 0
