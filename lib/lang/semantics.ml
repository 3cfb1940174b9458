open Safeopt_trace

type config = {
  mons : int Monitor.Map.t;
  regs : Value.t Reg.Map.t;
  code : Ast.stmt list;
}

let initial thread =
  { mons = Monitor.Map.empty; regs = Reg.Map.empty; code = thread }

let canonical c =
  let nonzero fold m =
    fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) m []
  in
  (nonzero Monitor.Map.fold c.mons, nonzero Reg.Map.fold c.regs, c.code)

let config_key c = Safeopt_exec.System.encode (canonical c)

let value_of c = function
  | Ast.Nat i -> i
  | Ast.Reg r -> Option.value ~default:Value.default (Reg.Map.find_opt r c.regs)

let eval_test c = function
  | Ast.Eq (a, b) -> Value.equal (value_of c a) (value_of c b)
  | Ast.Ne (a, b) -> not (Value.equal (value_of c a) (value_of c b))

type outcome =
  | Done
  | Diverged
  | Write of Location.t * Value.t * config
  | Read of Location.t * (Value.t -> config)
  | Rmw of Location.t * (Value.t -> Value.t * config)
  | Lock of Monitor.t * config
  | Unlock of Monitor.t * config
  | Output of Value.t * config

let mon_depth c m = Option.value ~default:0 (Monitor.Map.find_opt m c.mons)

let rec next ?(tau_fuel = 100_000) c =
  if tau_fuel <= 0 then Diverged
  else
    match c.code with
    | [] -> Done
    | s :: k -> (
        let tau code = next ~tau_fuel:(tau_fuel - 1) { c with code } in
        match s with
        | Ast.Skip -> tau k
        | Ast.Block l -> tau (l @ k)
        | Ast.Move (r, o) ->
            next ~tau_fuel:(tau_fuel - 1)
              { c with regs = Reg.Map.add r (value_of c o) c.regs; code = k }
        | Ast.If (t, s1, s2) -> tau ((if eval_test c t then s1 else s2) :: k)
        | Ast.While (t, s) ->
            if eval_test c t then tau (s :: Ast.While (t, s) :: k) else tau k
        | Ast.Store (l, r) ->
            Write (l, value_of c (Ast.Reg r), { c with code = k })
        | Ast.Load (r, l) ->
            Read
              (l, fun v -> { c with regs = Reg.Map.add r v c.regs; code = k })
        | Ast.Lock m ->
            Lock
              ( m,
                {
                  c with
                  mons = Monitor.Map.add m (mon_depth c m + 1) c.mons;
                  code = k;
                } )
        | Ast.Unlock m ->
            let d = mon_depth c m in
            if d > 0 then
              Unlock
                (m, { c with mons = Monitor.Map.add m (d - 1) c.mons; code = k })
            else tau k (* E-ULK: unlock of an un-held monitor is silent *)
        | Ast.Print r -> Output (value_of c (Ast.Reg r), { c with code = k })
        | Ast.Atomic (r, l, op) ->
            (* One indivisible step: the scheduler supplies the current
               value; the thread answers with the value to write and the
               continuation.  A failed CAS writes the read value back, so
               every atomic statement performs exactly one RMW action.
               The destination register receives the old value. *)
            Rmw
              ( l,
                fun v ->
                  let w =
                    match op with
                    | Ast.Cas (e, d) ->
                        if Value.equal v (value_of c e) then value_of c d
                        else v
                    | Ast.Faa o -> v + value_of c o
                    | Ast.Xchg o -> value_of c o
                  in
                  (w, { c with regs = Reg.Map.add r v c.regs; code = k }) ))

let issues ?tau_fuel c t =
  let rec go c = function
    | [] -> true
    | a :: rest -> (
        match (next ?tau_fuel c, a) with
        | Write (l, v, c'), Action.Write (l', v') ->
            Location.equal l l' && Value.equal v v' && go c' rest
        | Read (l, k), Action.Read (l', v) ->
            Location.equal l l' && go (k v) rest
        | Rmw (l, k), Action.Rmw (l', r, w) ->
            Location.equal l l'
            &&
            let w', c' = k r in
            Value.equal w w' && go c' rest
        | Lock (m, c'), Action.Lock m' -> Monitor.equal m m' && go c' rest
        | Unlock (m, c'), Action.Unlock m' -> Monitor.equal m m' && go c' rest
        | Output (v, c'), Action.External v' -> Value.equal v v' && go c' rest
        | ( ( Done | Diverged | Write _ | Read _ | Rmw _ | Lock _ | Unlock _
            | Output _ ),
            _ ) ->
            false)
  in
  go c t

let run_sequential ?tau_fuel ?(max_actions = 100_000) c ~read ~write =
  let rec go c n acc =
    if n >= max_actions then List.rev acc
    else
      match next ?tau_fuel c with
      | Done | Diverged -> List.rev acc
      | Write (l, v, c') ->
          write l v;
          go c' (n + 1) (Action.Write (l, v) :: acc)
      | Read (l, k) ->
          let v = read l in
          go (k v) (n + 1) (Action.Read (l, v) :: acc)
      | Rmw (l, k) ->
          let v = read l in
          let w, c' = k v in
          write l w;
          go c' (n + 1) (Action.Rmw (l, v, w) :: acc)
      | Lock (m, c') -> go c' (n + 1) (Action.Lock m :: acc)
      | Unlock (m, c') -> go c' (n + 1) (Action.Unlock m :: acc)
      | Output (v, c') -> go c' (n + 1) (Action.External v :: acc)
  in
  go c 0 []
