(* A prefix trie.  Every traceset holds [[]] and is closed under
   prefixes, so it is exactly the set of root paths of a trie: each node
   is one trace, and its children are the one-action extensions of that
   trace that are members too.  Children sit in a map ordered by
   [Action.compare], so a preorder walk visits traces in [Trace.compare]
   order, the order of [iter], [fold] and [maximal]. *)

module M = Map.Make (Action)

type t = Node of t M.t [@@unboxed]

let kids (Node k) = k
let empty = Node M.empty
let is_empty s = M.is_empty (kids s)
let rec cardinal s = M.fold (fun _ c n -> n + cardinal c) (kids s) 1

let rec sub s = function
  | [] -> Some s
  | a :: rest -> Option.bind (M.find_opt a (kids s)) (fun c -> sub c rest)

let mem t s = Option.is_some (sub s t)

let rec add t s =
  match t with
  | [] -> s
  | a :: rest ->
      let c = Option.value ~default:empty (M.find_opt a (kids s)) in
      Node (M.add a (add rest c) (kids s))

let rec union a b =
  Node (M.union (fun _ x y -> Some (union x y)) (kids a) (kids b))

let rec equal a b = M.equal equal (kids a) (kids b)

let rec subset a b =
  M.for_all
    (fun x ca ->
      match M.find_opt x (kids b) with
      | Some cb -> subset ca cb
      | None -> false)
    (kids a)

let of_list ts = List.fold_left (fun s t -> add t s) empty ts

let children prefix s =
  match sub s prefix with Some c -> M.bindings (kids c) | None -> []

(* Preorder over the nodes, each with its trace reversed. *)
let fold_nodes f s init =
  let rec go rev_path s acc =
    let acc = f rev_path s acc in
    M.fold (fun a c acc -> go (a :: rev_path) c acc) (kids s) acc
  in
  go [] s init

let fold f s init = fold_nodes (fun p _ acc -> f (List.rev p) acc) s init
let iter f s = fold (fun t () -> f t) s ()
let elements s = List.rev (fold List.cons s [])

(* Every action of every trace: one per edge. *)
let fold_actions f s init =
  let rec go s acc = M.fold (fun a c acc -> go c (f a acc)) (kids s) acc in
  go s init

let to_list s =
  List.stable_sort
    (fun a b -> Int.compare (Trace.length a) (Trace.length b))
    (elements s)

let maximal s =
  List.rev
    (fold_nodes
       (fun p n acc -> if is_empty n then List.rev p :: acc else acc)
       s [])

let elements_of_thread tid s =
  match M.find_opt (Action.Start tid) (kids s) with
  | None -> []
  | Some c -> List.map (List.cons (Action.Start tid)) (elements c)

let thread_ids s =
  M.fold
    (fun a _ acc -> match a with Action.Start tid -> tid :: acc | _ -> acc)
    (kids s) []
  |> List.sort_uniq Thread_id.compare

let filter p s = of_list (List.filter p (elements s))
let map_traces f s = of_list (List.map f (elements s))
let pp ppf s = Fmt.(braces (list ~sep:semi Trace.pp)) ppf (to_list s)

(* Closed under prefixes by construction: [add] inserts a whole path. *)
let prefix_closed _ = true
let well_locked s = List.for_all Trace.well_locked (elements s)
let properly_started s = List.for_all Trace.properly_started (elements s)
let well_formed s = prefix_closed s && well_locked s && properly_started s

let belongs_to s w ~universe =
  (* Branch over the universe at each wildcard; a wildcard trace over an
     empty universe has no instances, so it belongs vacuously. *)
  let rec go s = function
    | [] -> true
    | Wildcard.Concrete a :: w -> (
        match M.find_opt a (kids s) with Some c -> go c w | None -> false)
    | Wildcard.Wild_read l :: w ->
        List.for_all
          (fun v ->
            match M.find_opt (Action.Read (l, v)) (kids s) with
            | Some c -> go c w
            | None -> false)
          universe
  in
  (universe = [] && Wildcard.wildcard_count w > 0) || go s w

let locations s =
  fold_actions
    (fun a acc -> Location.Set.union (Trace.locations [ a ]) acc)
    s Location.Set.empty

let values s =
  fold_actions
    (fun a acc -> match Action.value a with Some v -> v :: acc | None -> acc)
    s []
  |> List.sort_uniq Value.compare
