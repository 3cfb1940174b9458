open Safeopt_trace

type pair = { tid : Thread_id.t; action : Action.t }
type t = pair list

let pair tid action = { tid; action }
let tid p = p.tid
let action p = p.action

let equal_pair a b =
  Thread_id.equal a.tid b.tid && Action.equal a.action b.action

let compare_pair a b =
  let c = Thread_id.compare a.tid b.tid in
  if c <> 0 then c else Action.compare a.action b.action

let equal = List.equal equal_pair
let compare = List.compare compare_pair
let pp_pair ppf p = Fmt.pf ppf "(%a,%a)" Thread_id.pp p.tid Action.pp p.action
let pp = Fmt.(brackets (list ~sep:semi pp_pair))
let to_string = Fmt.to_to_string pp
let length = List.length

let nth i k =
  match List.nth_opt i k with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Interleaving.nth: index %d" k)

let dom i = List.init (length i) Fun.id

let prefixes i =
  let rec go acc rev_pre = function
    | [] -> List.rev acc
    | p :: rest ->
        let rev_pre = p :: rev_pre in
        go (List.rev rev_pre :: acc) rev_pre rest
  in
  go [ [] ] [] i

let restrict i is =
  let is = List.sort_uniq Int.compare is in
  let rec go k i is =
    match (i, is) with
    | _, [] | [], _ -> []
    | p :: i, j :: is' ->
        if k = j then p :: go (k + 1) i is' else go (k + 1) i is
  in
  go 0 i is

let threads i =
  List.fold_left
    (fun acc p -> if List.mem p.tid acc then acc else p.tid :: acc)
    [] i
  |> List.sort Thread_id.compare

let trace_of t i =
  List.filter_map
    (fun p -> if Thread_id.equal p.tid t then Some p.action else None)
    i

let thread_traces i = List.map (fun t -> (t, trace_of t i)) (threads i)

let thread_index i k =
  let p = nth i k in
  let rec count j acc = function
    | [] -> acc
    | q :: rest ->
        if j >= k then acc
        else
          count (j + 1) (if Thread_id.equal q.tid p.tid then acc + 1 else acc) rest
  in
  count 0 0 i

let entry_points_ok i =
  List.for_all
    (fun p ->
      match p.action with
      | Action.Start e -> Thread_id.equal e p.tid
      | _ -> true)
    i
  && List.for_all
       (fun t ->
         match trace_of t i with
         | [] -> true
         | tr ->
             Trace.properly_started tr
             && List.length (List.filter Action.is_start tr) = 1)
       (threads i)

let respects_mutex i =
  let arr = Array.of_list i in
  let n = Array.length arr in
  let ok = ref true in
  for k = 0 to n - 1 do
    match arr.(k).action with
    | Action.Lock m ->
        let locker = arr.(k).tid in
        List.iter
          (fun t ->
            if not (Thread_id.equal t locker) then begin
              let locks = ref 0 and unlocks = ref 0 in
              for j = 0 to k - 1 do
                if Thread_id.equal arr.(j).tid t then
                  match arr.(j).action with
                  | Action.Lock m' when Monitor.equal m m' -> incr locks
                  | Action.Unlock m' when Monitor.equal m m' -> incr unlocks
                  | _ -> ()
              done;
              if !locks <> !unlocks then ok := false
            end)
          (threads i)
    | _ -> ()
  done;
  !ok

let well_locked i =
  List.for_all (fun t -> Trace.well_locked (trace_of t i)) (threads i)

let is_interleaving_of ts i =
  entry_points_ok i && respects_mutex i && well_locked i
  && List.for_all (fun t -> Traceset.mem (trace_of t i) ts) (threads i)

let location_of_index i k = Action.location (nth i k).action

(* What an action reads and what it writes: an RMW does both. *)
let read_of = function
  | Action.Read (l, v) | Action.Rmw (l, v, _) -> Some (l, v)
  | _ -> None

let write_of = function
  | Action.Write (l, v) | Action.Rmw (l, _, v) -> Some (l, v)
  | _ -> None

let writes_to i j l =
  match write_of (nth i j).action with
  | Some (l', _) -> Location.equal l l'
  | None -> false

let sees_write i r w =
  w < r && r < length i
  &&
  match (read_of (nth i r).action, write_of (nth i w).action) with
  | Some (l, v), Some (l', v') ->
      Location.equal l l' && Value.equal v v'
      && List.for_all (fun j -> not (j > w && j < r && writes_to i j l)) (dom i)
  | _ -> false

let sees_default i r =
  match read_of (nth i r).action with
  | Some (l, v) ->
      Value.is_default v
      && List.for_all (fun j -> not (j < r && writes_to i j l)) (dom i)
  | None -> false

let sees_most_recent_write i r =
  match read_of (nth i r).action with
  | Some _ ->
      sees_default i r || List.exists (fun w -> sees_write i r w) (dom i)
  | None -> true

let is_sequentially_consistent i =
  List.for_all (fun k -> sees_most_recent_write i k) (dom i)

let is_execution_of ts i =
  is_interleaving_of ts i && is_sequentially_consistent i

let behaviour i =
  List.filter_map
    (fun p ->
      match p.action with Action.External v -> Some v | _ -> None)
    i

let memory_after i =
  List.fold_left
    (fun m p ->
      match p.action with
      | Action.Write (l, v) -> Location.Map.add l v m
      | _ -> m)
    Location.Map.empty i

let _ = location_of_index

module Wild = struct
  type wpair = { tid : Thread_id.t; elt : Wildcard.elt }
  type wt = wpair list

  let pp_wpair ppf p =
    Fmt.pf ppf "(%a,%a)" Thread_id.pp p.tid Wildcard.pp_elt p.elt

  let pp = Fmt.(brackets (list ~sep:semi pp_wpair))
  let length = List.length

  let trace_of t i =
    List.filter_map
      (fun p -> if Thread_id.equal p.tid t then Some p.elt else None)
      i

  let thread_index i k =
    let p = List.nth i k in
    List.filteri (fun j q -> j < k && Thread_id.equal q.tid p.tid) i
    |> List.length

  let instance w =
    let rec go mem acc = function
      | [] -> List.rev acc
      | p :: rest ->
          let resolve l =
            Option.value ~default:Value.default (Location.Map.find_opt l mem)
          in
          let a =
            match p.elt with
            | Wildcard.Concrete a -> a
            | Wildcard.Wild_read l -> Action.Read (l, resolve l)
          in
          let mem =
            match a with
            | Action.Write (l, v) -> Location.Map.add l v mem
            | _ -> mem
          in
          go mem ({ tid = p.tid; action = a } :: acc) rest
    in
    go Location.Map.empty [] w
end
