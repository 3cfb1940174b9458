open Safeopt_trace
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Ev = Safeopt_obs.Event
module Clock = Safeopt_obs.Clock

exception Cyclic
exception Too_many_states of int

let default_max_states = 2_000_000

(* ------------------------------------------------------------------ *)
(* Exploration statistics                                              *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable states : int;
  mutable edges : int;
  mutable memo_hits : int;
  mutable por_cuts : int;
  mutable peak_frontier : int;
  mutable wall : float;
  mutable domains : int;
}

let create_stats () =
  {
    states = 0;
    edges = 0;
    memo_hits = 0;
    por_cuts = 0;
    peak_frontier = 0;
    wall = 0.;
    domains = 0;
  }

let reset_stats s =
  s.states <- 0;
  s.edges <- 0;
  s.memo_hits <- 0;
  s.por_cuts <- 0;
  s.peak_frontier <- 0;
  s.wall <- 0.;
  s.domains <- 0

let merge_stats ~into s =
  into.states <- into.states + s.states;
  into.edges <- into.edges + s.edges;
  into.memo_hits <- into.memo_hits + s.memo_hits;
  into.por_cuts <- into.por_cuts + s.por_cuts;
  if s.peak_frontier > into.peak_frontier then
    into.peak_frontier <- s.peak_frontier;
  into.wall <- into.wall +. s.wall;
  if s.domains > into.domains then into.domains <- s.domains

(* The record is the one counting cell: every entry point counts into a
   private record that starts at zero (no synchronisation in the hot
   loop) and hands it over once, when it is done.  [publish] folds a
   finished record into a registry under "explorer.*" names, with the
   call's throughput as one more gauge. *)
let publish ~into s =
  let c name v = Metrics.add (Metrics.counter into name) v in
  c "explorer.states" s.states;
  c "explorer.edges" s.edges;
  c "explorer.memo_hits" s.memo_hits;
  c "explorer.por_cuts" s.por_cuts;
  let g name v = Metrics.record (Metrics.gauge into name) v in
  g "explorer.peak_frontier" (float_of_int s.peak_frontier);
  g "explorer.wall_s" s.wall;
  g "explorer.domains" (float_of_int s.domains);
  if s.wall > 0. && s.states > 0 then
    g "explorer.states_per_s" (float_of_int s.states /. s.wall)

let of_registry reg =
  let c name = Option.value ~default:0 (Metrics.find_counter reg name) in
  let gmax name =
    match Metrics.find_gauge reg name with
    | Some g -> int_of_float g.Metrics.g_max
    | None -> 0
  in
  let gsum name =
    match Metrics.find_gauge reg name with
    | Some g -> g.Metrics.g_mean *. float_of_int g.Metrics.g_count
    | None -> 0.
  in
  {
    states = c "explorer.states";
    edges = c "explorer.edges";
    memo_hits = c "explorer.memo_hits";
    por_cuts = c "explorer.por_cuts";
    peak_frontier = gmax "explorer.peak_frontier";
    wall = gsum "explorer.wall_s";
    domains = gmax "explorer.domains";
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>exploration: %d states, %d transitions@ memo hits: %d, POR cuts: \
     %d@ peak frontier depth: %d@ wall time: %.6f s"
    s.states s.edges s.memo_hits s.por_cuts s.peak_frontier s.wall;
  if s.domains > 0 then Fmt.pf ppf "@ parallel: %d domains" s.domains;
  Fmt.pf ppf "@]"

let stats_fields s =
  Safeopt_obs.Json.
    [
      ("states", Int s.states);
      ("edges", Int s.edges);
      ("memo_hits", Int s.memo_hits);
      ("por_cuts", Int s.por_cuts);
      ("peak_frontier", Int s.peak_frontier);
      ("wall_s", Float s.wall);
      ("domains", Int s.domains);
    ]

(* A dummy sink so the hot loops mutate unconditionally instead of
   matching on an option at every step. *)
let sink = function Some s -> s | None -> create_stats ()

(* In-flight tracking for the heartbeat sampler.

   A record reaches the global registry only when its call ends, so a
   sampler reading just the registry would see a long exploration as a
   flat line.  Instead every entry point's record still counting is
   registered here, and {!live_progress} folds the registry together
   with them.
   [finish] removes a record and runs its hand-off {e under the same
   lock}, so any unit of work is visible exactly once — still counting
   or already handed over, never both, never neither.  That hand-off is
   what makes consecutive heartbeat snapshots monotone in every
   cumulative counter (the property the snapshot tests pin).  The lock
   also serialises merges into a caller's record, so parallel batch
   jobs may share one.

   Reading an in-flight record from the sampler domain races with the
   exploring domain mutating it: the fields are mutable ints and one
   boxed float — word-atomic under the OCaml memory model, never torn;
   a stale read only under-counts for one tick.  The hot loops are
   untouched (the sampler pulls), so a disabled heartbeat costs
   exploration nothing at all. *)
module Live = struct
  let mu = Mutex.create ()
  let cells : stats list ref = ref []
  let track s = Mutex.protect mu (fun () -> cells := s :: !cells)

  let finish s commit =
    Mutex.protect mu (fun () ->
        cells := List.filter (( != ) s) !cells;
        commit ())
end

let live_progress () =
  Mutex.protect Live.mu (fun () ->
      let s = of_registry Metrics.global in
      List.iter (fun c -> merge_stats ~into:s c) !Live.cells;
      s)

(* Entry-point wrapper: the call counts into a fresh record and, when it
   ends, hands it over under the live lock — merged into the caller's
   record, if any, and published into the global registry when metrics
   are on.  The [explorer.peak_frontier] and [explorer.domains] gauges
   carry the caller's running maxima.  One span per entry point closes
   with the call's counters as attributes.  With telemetry off and no
   [?stats], the cost is the [live] test. *)
let observed name stats f =
  let live = Metrics.enabled () || Tracer.enabled () in
  match (stats, live) with
  | None, false -> f None
  | _ ->
      let s = create_stats () in
      let tracked = Metrics.enabled () in
      if tracked then Live.track s;
      let sp = if Tracer.enabled () then Tracer.span name else Tracer.none in
      let t0 = Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          s.wall <- Clock.elapsed t0;
          Live.finish s (fun () ->
              Option.iter (fun c -> merge_stats ~into:c s) stats;
              let total = Option.value stats ~default:s in
              if tracked then
                publish ~into:Metrics.global
                  {
                    s with
                    peak_frontier = total.peak_frontier;
                    domains = total.domains;
                  });
          if sp <> Tracer.none then
            let attempts = float_of_int (s.edges + 1) in
            Tracer.close_span
              ~attrs:
                [
                  ("states", Ev.Int s.states);
                  ("edges", Ev.Int s.edges);
                  ("memo_hits", Ev.Int s.memo_hits);
                  ("por_cuts", Ev.Int s.por_cuts);
                  ( "intern_hit_rate",
                    Ev.Float ((attempts -. float_of_int s.states) /. attempts)
                  );
                ]
              sp)
        (fun () -> f (Some s))

(* The only parallelism: independent jobs spread across the pool, one
   item per job (claimed dynamically), each running ordinary
   explorations in the worker's own domain — the pool must not be
   re-entered from inside a worker.  The jobs share the caller's record,
   which [f] closes over: each entry point merges into it under the live
   lock.  An exploration knows nothing of the pool, so the batch itself
   reports the pool size, to the record and to the [explorer.domains]
   gauge. *)
let batch_map ?stats ?jobs ?pool f xs =
  Par.dispatch ?jobs ?pool
    ~seq:(fun () -> List.map f xs)
    ~par:(fun p ->
      let ys = Par.Pool.map_list p (fun _ x -> f x) xs in
      let n = Par.Pool.size p in
      Option.iter (fun s -> s.domains <- max s.domains n) stats;
      if Metrics.enabled () then
        Metrics.record
          (Metrics.gauge Metrics.global "explorer.domains")
          (float_of_int n);
      ys)
    ()

(* ------------------------------------------------------------------ *)
(* Hash-consed scheduler states                                        *)
(* ------------------------------------------------------------------ *)

(* A scheduler state carries its own digest pieces: [tkeys.(i)] is the
   interned key of thread [i]'s state, [mem_id]/[locks_id] the interned
   canonical serialisations of the shared memory and the monitor table.
   Successors update only the piece an action touches, so the O(|state|)
   re-serialisation of the old string keys happens at most once per
   changed component per transition, not once per component per visit. *)
type 'ts state = {
  threads : 'ts array;
  tkeys : int array;
  mem : Value.t Location.Map.t;
  mem_id : int;
  locks : (Thread_id.t * int) Monitor.Map.t;
  locks_id : int;
}

(* The interning context of one exploration, on tables only its domain
   touches. *)
type 'ts ctx = {
  sys : 'ts System.t;
  tkey : string -> int;  (** thread-state keys *)
  lkey : string -> int;  (** locations *)
  mkey : string -> int;  (** monitors *)
  mems : int array -> int;  (** canonical memories *)
  lockts : int array -> int;  (** canonical monitor tables *)
}

let make_ctx sys =
  let intern () = Par.Intern.id (Par.Intern.create ()) in
  let table () = Par.Ptbl.intern (Par.Ptbl.create ~dummy:() ()) in
  {
    sys;
    tkey = intern ();
    lkey = intern ();
    mkey = intern ();
    mems = table ();
    lockts = table ();
  }

let intern_mem ctx mem =
  let parts =
    Location.Map.fold (fun l v acc -> ctx.lkey l :: v :: acc) mem []
  in
  ctx.mems (Array.of_list parts)

let intern_locks ctx locks =
  let parts =
    Monitor.Map.fold
      (fun m (o, d) acc -> ctx.mkey m :: o :: d :: acc)
      locks []
  in
  ctx.lockts (Array.of_list parts)

let initial ctx =
  let threads = Array.of_list ctx.sys.System.initial in
  {
    threads;
    tkeys = Array.map (fun ts -> ctx.tkey (ctx.sys.System.key ts)) threads;
    mem = Location.Map.empty;
    mem_id = intern_mem ctx Location.Map.empty;
    locks = Monitor.Map.empty;
    locks_id = intern_locks ctx Monitor.Map.empty;
  }

let state_digest st =
  let n = Array.length st.tkeys in
  let d = Array.make (n + 2) 0 in
  Array.blit st.tkeys 0 d 0 n;
  d.(n) <- st.mem_id;
  d.(n + 1) <- st.locks_id;
  d

let read_value st l =
  Option.value ~default:Value.default (Location.Map.find_opt l st.mem)

let set_thread ctx st tid ts' =
  let threads = Array.copy st.threads in
  threads.(tid) <- ts';
  let tkeys = Array.copy st.tkeys in
  tkeys.(tid) <- ctx.tkey (ctx.sys.System.key ts');
  (threads, tkeys)

(* All enabled transitions from a scheduler state whose threads offer
   [steps]: ((thread id, action), successor state), in thread-index then
   step order — the order every search expands them in. *)
let transitions ctx st steps =
  let out = ref [] in
  Array.iteri
    (fun tid thread_steps ->
      List.iter
        (fun step ->
          match step with
          | System.Read (l, k) -> (
              let v = read_value st l in
              match k v with
              | Some ts' ->
                  let threads, tkeys = set_thread ctx st tid ts' in
                  out :=
                    ((tid, Action.Read (l, v)), { st with threads; tkeys })
                    :: !out
              | None -> ())
          | System.Rmw (l, k) ->
              let v = read_value st l in
              List.iter
                (fun (w, ts') ->
                  let mem = Location.Map.add l w st.mem in
                  let st' = { st with mem; mem_id = intern_mem ctx mem } in
                  let threads, tkeys = set_thread ctx st' tid ts' in
                  out :=
                    ((tid, Action.Rmw (l, v, w)), { st' with threads; tkeys })
                    :: !out)
                (k v)
          | System.Emit (a, ts') -> (
              let commit st' =
                let threads, tkeys = set_thread ctx st' tid ts' in
                out := ((tid, a), { st' with threads; tkeys }) :: !out
              in
              match a with
              | Action.Read _ ->
                  invalid_arg "Explorer: reads must use System.Read steps"
              | Action.Rmw _ ->
                  invalid_arg "Explorer: RMWs must use System.Rmw steps"
              | Action.Write (l, v) ->
                  let mem = Location.Map.add l v st.mem in
                  commit { st with mem; mem_id = intern_mem ctx mem }
              | Action.Lock m -> (
                  match Monitor.Map.find_opt m st.locks with
                  | None ->
                      let locks = Monitor.Map.add m (tid, 1) st.locks in
                      commit
                        { st with locks; locks_id = intern_locks ctx locks }
                  | Some (owner, d) when Thread_id.equal owner tid ->
                      let locks = Monitor.Map.add m (tid, d + 1) st.locks in
                      commit
                        { st with locks; locks_id = intern_locks ctx locks }
                  | Some _ -> ())
              | Action.Unlock m -> (
                  match Monitor.Map.find_opt m st.locks with
                  | Some (owner, d) when Thread_id.equal owner tid ->
                      let locks =
                        if d = 1 then Monitor.Map.remove m st.locks
                        else Monitor.Map.add m (tid, d - 1) st.locks
                      in
                      commit
                        { st with locks; locks_id = intern_locks ctx locks }
                  | _ -> ())
              | Action.External _ | Action.Start _ -> commit st))
        thread_steps)
    steps;
  List.rev !out

let offered ctx st = Array.map ctx.sys.System.steps st.threads
let enabled ctx st = transitions ctx st (offered ctx st)

(* ------------------------------------------------------------------ *)
(* Persistent sets and the race test                                   *)
(* ------------------------------------------------------------------ *)

(* Persistent-set selection: if some thread's enabled transitions are
   all [local], that thread's transitions alone form a persistent set.
   The selection is a pure function of the state, so a state expands the
   same transitions however the search reaches it.  Sound for systems
   whose thread states offer at most one step each; DESIGN.md §6.2 gives
   the argument, which also shows that running {!race} on every
   expanded state decides DRF. *)
let persistent_select local succs =
  let rec tids_of acc = function
    | [] -> List.rev acc
    | ((tid, _), _) :: rest ->
        tids_of (if List.mem tid acc then acc else tid :: acc) rest
  in
  let candidate tid =
    List.for_all
      (fun ((t, a), _) -> (not (Thread_id.equal t tid)) || local a)
      succs
  in
  match List.find_opt candidate (tids_of [] succs) with
  | Some tid -> List.filter (fun ((t, _), _) -> Thread_id.equal t tid) succs
  | None -> succs

(* The next steps in the target of [tid]'s step [a] from [st], read off
   the source, where the threads offer [steps] and [labels] label the
   enabled transitions: a thread that does not move offers the same
   steps in the target.  Only its reads and RMWs of a location [a]
   writes with a new value can change (a traceset thread may decline
   one value and take another), so those are re-run against the written
   value.  The labels of [tid] itself are left stale: the race test
   ignores them. *)
let target_labels st steps labels (tid, a) =
  match a with
  | (Action.Write (l, w) | Action.Rmw (l, _, w))
    when not (Value.equal w (read_value st l)) ->
      let reads_l (_, b) =
        match b with
        | Action.Read (l', _) | Action.Rmw (l', _, _) -> Location.equal l l'
        | _ -> false
      in
      let out = ref (List.filter (fun x -> not (reads_l x)) labels) in
      Array.iteri
        (fun t thread_steps ->
          if not (Thread_id.equal t tid) then
            List.iter
              (function
                | System.Read (l', k) when Location.equal l l' ->
                    if Option.is_some (k w) then
                      out := (t, Action.Read (l, w)) :: !out
                | System.Rmw (l', k) when Location.equal l l' ->
                    List.iter
                      (fun (w', _) -> out := (t, Action.Rmw (l, w, w')) :: !out)
                      (k w)
                | _ -> ())
              thread_steps)
        steps;
      !out
  | _ -> labels

(* The race test of a state [st] whose threads offer [steps] and whose
   enabled transitions are [succs], selected or not: the first
   transition [(tid, a)] with a step [(tid', b)] of another thread in
   its target that conflicts with [a]. *)
let race vol st steps succs =
  let labels = List.map fst succs in
  List.find_map
    (fun (((tid, a) as l), _) ->
      List.find_opt
        (fun (tid', b) ->
          (not (Thread_id.equal tid tid')) && Action.conflicting vol a b)
        (target_labels st steps labels l)
      |> Option.map (fun b -> (l, b)))
    succs

(* ------------------------------------------------------------------ *)
(* The engine: one discovery loop, one fold                            *)
(* ------------------------------------------------------------------ *)

(* Every exhaustive search in this module is one run of [discover] over
   a state space — a root, a digest, an expansion — followed, for the
   analyses that compute a result per state, by one memoised [fold]
   over the discovered graph.

   Discovery is a depth-first search over an explicit stack, in the
   calling domain.  It pops a state, expands it, interns each
   successor's digest in the packed {!Par.Ptbl} visited table and
   pushes the successors it is the first to reach, last-first, so that
   it pops them in expansion order.  An exception raised by an
   expansion (a witness search's [Found]) surfaces from [discover]:
   that is how searches exit early.

   The optional reduction [select] keeps a persistent subset of each
   expansion.  It is a pure function of the state, and each state is
   expanded once.

   Edges are packed: a state's expansion is one unboxed [int array] of
   (target id, label id) pairs, stored in the state's table entry.
   Labels are interned in order of first use.  A witness search needs
   no graph ([~graph:false]): it records no edges at all.

   Each stacked state also carries its depth (the root is 1), and
   [peak_frontier] is the deepest state expanded: the depth of the
   depth-first search. *)

type meta = { mutable pedges : int array  (** the expansion, packed *) }

type 'lbl discovered = {
  root : int;
  succ : int array array;  (** state id -> (target, label) id pairs *)
  labels : ('lbl, int) Hashtbl.t;
}

let discover (type st lbl) ~max_states ~(stats : stats) ?(graph = true)
    ?select ~(digest : st -> int array) ~(expand : st -> (lbl * st) list)
    (root : st) : lbl discovered =
  let tbl = Par.Ptbl.create ~dummy:{ pedges = [||] } () in
  let labels = Hashtbl.create 64 in
  let label_id l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None ->
        let i = Hashtbl.length labels in
        Hashtbl.add labels l i;
        i
  in
  (* Intern [st]; the first arrival gets the stack item that expands
     it, and counts against the budget. *)
  let arrive st depth =
    match
      Par.Ptbl.update tbl (digest st) (function
        | None ->
            let m = { pedges = [||] } in
            (m, Some m)
        | Some m -> (m, None))
    with
    | id, Some m ->
        stats.states <- stats.states + 1;
        if Par.Ptbl.length tbl > max_states then
          raise (Too_many_states (Par.Ptbl.length tbl));
        (id, Some (st, m, depth))
    | id, None -> (id, None)
  in
  let expand_item (st, m, depth) stack =
    if depth > stats.peak_frontier then stats.peak_frontier <- depth;
    let succs = expand st in
    let selected =
      match select with
      | Some select ->
          let selected = select succs in
          stats.por_cuts <-
            stats.por_cuts + (List.length succs - List.length selected);
          selected
      | None -> succs
    in
    let edges =
      if graph then Array.make (2 * List.length selected) 0 else [||]
    in
    let fresh = ref [] in
    List.iteri
      (fun k (l, st') ->
        stats.edges <- stats.edges + 1;
        let id', item = arrive st' (depth + 1) in
        if graph then begin
          edges.(2 * k) <- id';
          edges.((2 * k) + 1) <- label_id l
        end;
        Option.iter (fun item -> fresh := item :: !fresh) item)
      selected;
    if graph then m.pedges <- edges;
    List.rev_append !fresh stack
  in
  let rec search = function
    | [] -> ()
    | item :: stack -> search (expand_item item stack)
  in
  let root_id, item = arrive root 1 in
  search (Option.to_list item);
  let succ =
    if graph then begin
      let succ = Array.make (Par.Ptbl.length tbl) [||] in
      Par.Ptbl.iter tbl (fun id m -> succ.(id) <- m.pedges);
      succ
    end
    else [||]
  in
  { root = root_id; succ; labels }

(* The memoised suffix fold over a discovered graph: a state's result is
   [empty] united with [label l r'] for each edge, [r'] the target's
   result.  Raises [Cyclic] exactly when a cycle is reachable. *)
let fold (type r lbl) ~(empty : r) ~(union : r -> r -> r)
    ~(label : lbl -> r -> r) ~(stats : stats) (g : lbl discovered) : r =
  let lab = Array.make (Hashtbl.length g.labels) Fun.id in
  Hashtbl.iter (fun l i -> lab.(i) <- label l) g.labels;
  let n = Array.length g.succ in
  let memo = Array.make n empty in
  let mark = Bytes.make n 'u' (* unvisited, on the stack, done *) in
  let rec go id =
    match Bytes.get mark id with
    | 'd' ->
        stats.memo_hits <- stats.memo_hits + 1;
        memo.(id)
    | 's' -> raise Cyclic
    | _ ->
        Bytes.set mark id 's';
        let e = g.succ.(id) in
        let r = ref empty in
        for k = 0 to (Array.length e / 2) - 1 do
          r := union !r (lab.(e.((2 * k) + 1)) (go e.(2 * k)))
        done;
        memo.(id) <- !r;
        Bytes.set mark id 'd';
        !r
  in
  go g.root

let prepend_external a sub =
  match a with
  | Action.External v -> Behaviour.Set.map (fun b -> v :: b) sub
  | _ -> sub

(* ------------------------------------------------------------------ *)
(* Behaviours and state counts                                         *)
(* ------------------------------------------------------------------ *)

let sys_graph ~max_states ~stats ?(expand = enabled) sys =
  let ctx = make_ctx sys in
  discover ~max_states ~stats
    ~select:(persistent_select sys.System.local)
    ~digest:state_digest ~expand:(expand ctx) (initial ctx)

let behaviour_fold ~stats g =
  fold
    ~empty:(Behaviour.Set.singleton [])
    ~union:Behaviour.Set.union
    ~label:(fun (_, a) -> prepend_external a)
    ~stats g

let behaviours ?(max_states = default_max_states) ?stats sys =
  observed "explorer.behaviours" stats @@ fun stats ->
  let stats = sink stats in
  behaviour_fold ~stats (sys_graph ~max_states ~stats sys)

(* One exploration, two answers: the expansion also runs the race test
   on every state until one races. *)
let behaviours_and_drf ?(max_states = default_max_states) ?stats vol sys =
  observed "explorer.behaviours_drf" stats @@ fun stats ->
  let stats = sink stats in
  let racy = ref false in
  let expand ctx st =
    let steps = offered ctx st in
    let succs = transitions ctx st steps in
    if (not !racy) && Option.is_some (race vol st steps succs) then
      racy := true;
    succs
  in
  let g = sys_graph ~max_states ~stats ~expand sys in
  (behaviour_fold ~stats g, not !racy)

let count_states ?(max_states = default_max_states) ?stats sys =
  observed "explorer.count_states" stats @@ fun stats ->
  let stats = sink stats in
  let g = sys_graph ~max_states ~stats sys in
  fold ~empty:() ~union:(fun () () -> ()) ~label:(fun _ () -> ()) ~stats g;
  Array.length g.succ

(* ------------------------------------------------------------------ *)
(* Streaming executions                                                *)
(* ------------------------------------------------------------------ *)

let maximal_executions_seq ?(max_steps = 1_000_000) ?stats sys =
  let s = sink stats in
  let ctx = make_ctx sys in
  let steps = ref 0 in
  let rec go st rev_path : Interleaving.t Seq.t =
   fun () ->
    match enabled ctx st with
    | [] -> Seq.Cons (List.rev rev_path, Seq.empty)
    | succs ->
        Seq.flat_map
          (fun ((tid, a), st') () ->
            incr steps;
            s.edges <- s.edges + 1;
            if !steps > max_steps then raise (Too_many_states !steps);
            go st' (Interleaving.pair tid a :: rev_path) ())
          (List.to_seq succs) ()
  in
  go (initial ctx) []

let maximal_executions ?max_steps ?stats sys =
  observed "explorer.executions" stats (fun stats ->
      List.of_seq (maximal_executions_seq ?max_steps ?stats sys))

let count_executions ?max_steps ?stats sys =
  observed "explorer.executions" stats (fun stats ->
      Seq.fold_left
        (fun n _ -> n + 1)
        0
        (maximal_executions_seq ?max_steps ?stats sys))

(* ------------------------------------------------------------------ *)
(* Witness searches                                                    *)
(* ------------------------------------------------------------------ *)

(* A witness search walks scheduler states carrying the path that
   reached each one, reversed. *)
type 'ts walker = { at : 'ts state; path : Interleaving.t }

let extend w succs =
  List.map
    (fun (((tid, a) as l), st') ->
      (l, { at = st'; path = Interleaving.pair tid a :: w.path }))
    succs

let walk ~max_states ~stats ?select ~expand ctx =
  ignore
    (discover ~max_states ~stats:(sink stats) ~graph:false ?select
       ~digest:(fun w -> state_digest w.at)
       ~expand
       { at = initial ctx; path = [] })

(* [behaviours_and_drf]'s race test on the same reduced walk, keeping
   paths: the first state that races answers its path, then the racing
   transition, then the step it races with.  Every state on that path
   was expanded, so its transitions were tested before the walk went
   on: a witness's first adjacent race is its last two actions. *)
let find_adjacent_race ?(max_states = default_max_states) ?stats vol sys =
  observed "explorer.race_search" stats @@ fun stats ->
  let ctx = make_ctx sys in
  let exception Found of Interleaving.t in
  let expand w =
    let steps = offered ctx w.at in
    let succs = transitions ctx w.at steps in
    match race vol w.at steps succs with
    | Some ((tid, a), (tid', b)) ->
        raise
          (Found
             (List.rev
                (Interleaving.pair tid' b :: Interleaving.pair tid a :: w.path)))
    | None -> extend w succs
  in
  match
    walk ~max_states ~stats ~select:(persistent_select sys.System.local)
      ~expand ctx
  with
  | () -> None
  | exception Found i -> Some i

let find_deadlock ?(max_states = default_max_states) ?stats sys =
  observed "explorer.deadlock" stats @@ fun stats ->
  let ctx = make_ctx sys in
  let exception Found of Interleaving.t in
  let expand w =
    match enabled ctx w.at with
    | [] when Array.exists (fun ts -> sys.System.steps ts <> []) w.at.threads
      ->
        raise (Found (List.rev w.path))
    | succs -> extend w succs
  in
  match walk ~max_states ~stats ~expand ctx with
  | () -> None
  | exception Found i -> Some i

(* ------------------------------------------------------------------ *)
(* Randomised sampling                                                 *)
(* ------------------------------------------------------------------ *)

let sample_runs ?(max_actions = 10_000) ~seed ~runs sys =
  let ctx = make_ctx sys in
  Seq.init runs (fun run ->
      (* one generator per run, so the stream is re-evaluable and a
         consumer may stop after any prefix without changing the rest *)
      let rng = Random.State.make [| seed; run |] in
      let rec go st rev_beh n =
        if n >= max_actions then List.rev rev_beh
        else
          match enabled ctx st with
          | [] -> List.rev rev_beh
          | succs ->
              let (_, a), st' =
                List.nth succs (Random.State.int rng (List.length succs))
              in
              let rev_beh =
                match a with
                | Action.External v -> v :: rev_beh
                | _ -> rev_beh
              in
              go st' rev_beh (n + 1)
      in
      go (initial ctx) [] 0)

let sample_behaviours ?max_actions ~seed ~runs ?stats sys =
  observed "explorer.sample" stats (fun _ ->
      Seq.fold_left
        (fun acc b ->
          Behaviour.Set.union acc
            (Behaviour.Set.of_list (Behaviour.Set.list_prefixes b)))
        Behaviour.Set.empty
        (sample_runs ?max_actions ~seed ~runs sys))

(* ------------------------------------------------------------------ *)
(* Explicit graphs (TSO/PSO machines)                                  *)
(* ------------------------------------------------------------------ *)

type 'st graph = {
  graph_initial : 'st;
  graph_transitions : 'st -> (Action.t option * 'st) list;
  graph_digest : 'st -> int list;
}

let graph_behaviours ?(max_states = default_max_states) ?stats g =
  observed "explorer.graph" stats @@ fun stats ->
  let stats = sink stats in
  fold
    ~empty:(Behaviour.Set.singleton [])
    ~union:Behaviour.Set.union
    ~label:(function Some a -> prepend_external a | None -> Fun.id)
    ~stats
    (discover ~max_states ~stats
       ~digest:(fun st -> Array.of_list (g.graph_digest st))
       ~expand:g.graph_transitions g.graph_initial)
