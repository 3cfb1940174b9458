(* A naive reference enumerator for the paper's §3 notions, to check the
   exploration engine against.  It runs the same thread systems
   ({!Safeopt_exec.System.t}: a thread's offered steps are the
   semantics, not the engine) but shares none of the engine's
   machinery: memory, monitors and states are plain lists, and there is
   no interning, no reduction and no domain.  Each scheduler state's
   answer is memoised on the state itself, threads by their keys, so
   the cost stays linear in the number of distinct states.

   - [behaviours sys]: the external actions of every execution, every
     prefix of an execution being one (§3: executions are interleavings
     that respect the locks and in which each read sees the most recent
     write, or the default value), with the number of distinct
     scheduler states reached.
   - [is_drf vol sys]: no execution has two adjacent conflicting
     accesses by different threads (§3's adjacent-race definition).
   - [replay sys i]: the states an interleaving can end in, stepping
     from the initial state through transitions labelled as its
     actions; [[]] if [i] is not an execution of [sys]. *)

open Safeopt_trace
open Safeopt_exec

type 'ts state = {
  threads : 'ts list;  (** index = thread id *)
  mem : (Location.t * Value.t) list;  (** written locations, sorted *)
  held : (Monitor.t * (Thread_id.t * int)) list;  (** owner, depth; sorted *)
}

exception Cycle

let initial sys = { threads = sys.System.initial; mem = []; held = [] }
let key sys st = (List.map sys.System.key st.threads, st.mem, st.held)

let read st l =
  Option.value ~default:Value.default (List.assoc_opt l st.mem)

let set l v assoc = List.sort compare ((l, v) :: List.remove_assoc l assoc)

(* Every transition of [st]: ((thread id, action), successor). *)
let transitions sys st =
  List.concat
    (List.mapi
       (fun tid ts ->
         let move ?(mem = st.mem) ?(held = st.held) ts' =
           let threads =
             List.mapi (fun j t -> if j = tid then ts' else t) st.threads
           in
           { threads; mem; held }
         in
         List.concat_map
           (function
             | System.Read (l, k) -> (
                 let v = read st l in
                 match k v with
                 | Some ts' -> [ ((tid, Action.Read (l, v)), move ts') ]
                 | None -> [])
             | System.Rmw (l, k) ->
                 let v = read st l in
                 List.map
                   (fun (w, ts') ->
                     ( (tid, Action.Rmw (l, v, w)),
                       move ~mem:(set l w st.mem) ts' ))
                   (k v)
             | System.Emit (a, ts') -> (
                 let step ?mem ?held () = [ ((tid, a), move ?mem ?held ts') ] in
                 let owner m = List.assoc_opt m st.held in
                 match a with
                 | Action.Write (l, v) -> step ~mem:(set l v st.mem) ()
                 | Action.Lock m -> (
                     match owner m with
                     | None -> step ~held:(set m (tid, 1) st.held) ()
                     | Some (o, d) when o = tid ->
                         step ~held:(set m (tid, d + 1) st.held) ()
                     | Some _ -> [])
                 | Action.Unlock m -> (
                     match owner m with
                     | Some (o, 1) when o = tid ->
                         step ~held:(List.remove_assoc m st.held) ()
                     | Some (o, d) when o = tid ->
                         step ~held:(set m (tid, d - 1) st.held) ()
                     | _ -> [])
                 | Action.External _ | Action.Start _ -> step ()
                 | Action.Read _ | Action.Rmw _ ->
                     invalid_arg "Reference: a read or RMW as an Emit step"))
           (sys.System.steps ts))
       st.threads)

(* A memoised fold over the states reachable from the initial one;
   raises [Cycle] if one is reachable from itself. *)
let fold sys f =
  let memo = Hashtbl.create 64 in
  let rec go st =
    let k = key sys st in
    match Hashtbl.find_opt memo k with
    | Some (Some r) -> r
    | Some None -> raise Cycle
    | None ->
        Hashtbl.add memo k None;
        let r = f go (transitions sys st) in
        Hashtbl.replace memo k (Some r);
        r
  in
  let r = go (initial sys) in
  (r, Hashtbl.length memo)

let behaviours sys =
  fold sys (fun go succs ->
      List.fold_left
        (fun acc ((_, a), st') ->
          let sub = go st' in
          let sub =
            match a with
            | Action.External v -> List.map (fun b -> v :: b) sub
            | _ -> sub
          in
          List.sort_uniq compare (acc @ sub))
        [ [] ] succs)

let replay sys i =
  List.fold_left
    (fun sts { Interleaving.tid; action } ->
      List.concat_map
        (fun st ->
          List.filter_map
            (fun ((t, a), st') ->
              if t = tid && Action.equal a action then Some st' else None)
            (transitions sys st))
        sts)
    [ initial sys ] i

let is_drf vol sys =
  let racy =
    fst
      (fold sys (fun go succs ->
           List.exists
             (fun ((t, a), st') ->
               List.exists
                 (fun ((t', b), _) -> t <> t' && Action.conflicting vol a b)
                 (transitions sys st'))
             succs
           || List.exists (fun (_, st') -> go st') succs))
  in
  not racy
