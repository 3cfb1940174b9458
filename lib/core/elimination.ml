open Safeopt_trace

type witness = { wild : Wildcard.t; kept : int list }

let pp_witness ppf w =
  Fmt.pf ppf "@[<h>%a keeping %a@]" Wildcard.pp w.wild
    Fmt.(brackets (list ~sep:comma int))
    w.kept

let check_witness ?(proper = false) vol ~transformed w =
  let n = Wildcard.length w.wild in
  let kept = List.sort_uniq Int.compare w.kept in
  let dropped =
    List.filter (fun i -> not (List.mem i kept)) (List.init n Fun.id)
  in
  let elim_ok =
    let p =
      if proper then Eliminable.properly_eliminable else Eliminable.eliminable
    in
    List.for_all (fun i -> p vol w.wild i) dropped
  in
  let restricted = Wildcard.restrict w.wild kept in
  elim_ok
  && List.length restricted = Trace.length transformed
  && List.for_all2
       (fun e a ->
         match e with
         | Wildcard.Concrete a' -> Action.equal a a'
         | Wildcard.Wild_read _ -> false)
       restricted transformed

let embeddings ?(proper = false) vol ~transformed ~wild =
  (* DFS: embed [transformed] as a concrete subsequence of [wild]; every
     skipped position must be eliminable.  Eliminability of a position
     depends only on [wild], so it is precomputed. *)
  let n = Wildcard.length wild in
  let arr = Array.of_list wild in
  let elim =
    let p =
      if proper then Eliminable.properly_eliminable else Eliminable.eliminable
    in
    Array.init n (fun i -> p vol wild i)
  in
  let results = ref [] in
  let rec go i rest kept_rev =
    match rest with
    | [] ->
        (* Remaining positions must all be eliminable. *)
        let rec tail_ok j = j >= n || (elim.(j) && tail_ok (j + 1)) in
        if tail_ok i then results := List.rev kept_rev :: !results
    | a :: rest' ->
        if i >= n then ()
        else begin
          (* Option 1: match position i. *)
          (match arr.(i) with
          | Wildcard.Concrete a' when Action.equal a a' ->
              go (i + 1) rest' (i :: kept_rev)
          | _ -> ());
          (* Option 2: skip position i if eliminable. *)
          if elim.(i) then go (i + 1) rest kept_rev
        end
  in
  go 0 transformed [];
  List.rev !results

(* The first kept-set in [embeddings]' order (keep before drop) that
   embeds the [m] transformed actions into [n] positions: [keeps i k]
   says position [i] may keep transformed action [k], [drop i] that it
   may be dropped.  Whether a state [(i, k)] can complete does not depend
   on the path to it, so a failed state is never explored twice. *)
let first_embedding ~n ~m ~keeps ~drop =
  let tail = Array.make (n + 1) true in
  for i = n - 1 downto 0 do
    tail.(i) <- drop i && tail.(i + 1)
  done;
  let failed = Array.make ((n + 1) * (m + 1)) false in
  let rec go i k kept_rev =
    if k = m then if tail.(i) then Some (List.rev kept_rev) else None
    else if n - i < m - k || failed.((i * (m + 1)) + k) then None
    else
      let r = if keeps i k then go (i + 1) (k + 1) (i :: kept_rev) else None in
      let r = if r = None && drop i then go (i + 1) k kept_rev else r in
      if r = None then failed.((i * (m + 1)) + k) <- true;
      r
  in
  go 0 0 []

let eliminability ?(proper = false) vol wild =
  let p =
    if proper then Eliminable.properly_eliminable else Eliminable.eliminable
  in
  Array.init (Wildcard.length wild) (fun i -> p vol wild i)

let trace_elimination_of ?proper vol ~transformed ~wild =
  let elim = eliminability ?proper vol wild in
  let ta = Array.of_list transformed and wa = Array.of_list wild in
  first_embedding ~n:(Array.length wa) ~m:(Array.length ta)
    ~drop:(Array.get elim) ~keeps:(fun i k ->
      match wa.(i) with
      | Wildcard.Concrete a -> Action.equal a ta.(k)
      | Wildcard.Wild_read _ -> false)

let rec subsets = function
  | [] -> Seq.return []
  | x :: rest ->
      let s = subsets rest in
      Seq.append s (Seq.map (List.cons x) s)

(* [acts] with the reads at positions [ws] turned into wildcards. *)
let wildcardise acts ws =
  List.mapi
    (fun i a ->
      match a with
      | Action.Read (l, _) when List.mem i ws -> Wildcard.Wild_read l
      | _ -> Wildcard.Concrete a)
    (Array.to_list acts)

let generalisations ~belongs_to t =
  (* Replace subsets of read positions by wildcards, keeping only the
     generalisations all of whose instances stay in the traceset. *)
  let acts = Array.of_list t in
  List.init (Array.length acts) Fun.id
  |> List.filter (fun i -> Action.is_read acts.(i))
  |> subsets |> List.of_seq
  |> List.map (wildcardise acts)
  |> List.filter belongs_to

(* Definition 1 never eliminates an acquire (a lock, a volatile read or
   an RMW) or a start, concrete or wildcard, so a witness drops only
   other actions of its original trace.  When the others may go
   (clauses 7 and 8 for releases and external actions) is left to the
   eliminability check. *)
let droppable vol a = not (Action.is_acquire vol a || Action.is_start a)

(* The first witness on one original trace [acts] for the transformed
   trace [ta], as [(ws, kept)]: the reads at [ws] become wildcards and
   [kept] is the embedding.  The concrete trace comes first, then the
   generalisations in [generalisations]' subset order.  [elim ws] is the
   eliminability of every position of that generalisation and [belongs
   ws] its belongs-to check; the embedding, the cheaper test, runs first.

   A wildcard changes Definition 1 in two ways only: its own position
   becomes eliminable if the read is non-volatile (clause 3), and it can
   no longer justify another position as the earlier read of clauses 1
   and 4.  So an embedding into any generalisation is also an embedding
   into the concrete trace that may drop every non-volatile read, with
   each wildcard among the dropped reads.  Wildcards go only on the
   reads some such relaxed embedding drops; the other generalisations
   cannot embed, and leaving them out keeps the order of the rest. *)
let witness_on vol ~elim ~belongs acts ta =
  let n = Array.length acts and m = Array.length ta in
  let concrete_keeps i k = Action.equal acts.(i) ta.(k) in
  let try_ws ws =
    let e = elim ws in
    match
      first_embedding ~n ~m ~drop:(Array.get e) ~keeps:(fun i k ->
          (not (List.mem i ws)) && concrete_keeps i k)
    with
    | Some kept when belongs ws -> Some (ws, kept)
    | _ -> None
  in
  if
    first_embedding ~n ~m ~keeps:concrete_keeps ~drop:(fun i ->
        droppable vol acts.(i))
    = None
  then None
  else
    match try_ws [] with
    | Some _ as r -> r
    | None ->
        let e0 = elim [] in
        let nv_read i = Action.is_normal_read vol acts.(i) in
        let relaxed i = e0.(i) || nv_read i in
        (* a non-volatile read that some relaxed embedding drops *)
        let wildcardable i =
          nv_read i
          && first_embedding ~n ~m ~drop:relaxed ~keeps:(fun j k ->
                 j <> i && concrete_keeps j k)
             <> None
        in
        List.filter wildcardable (List.init n Fun.id)
        |> subsets |> Seq.drop 1 |> Seq.find_map try_ws

let find_witness ?proper vol ~belongs_to ~candidates ~transformed =
  let ta = Array.of_list transformed in
  let tlen = Array.length ta in
  let candidates =
    List.filter (fun t -> Trace.length t >= tlen) candidates
    |> List.sort (fun a b -> Int.compare (Trace.length a) (Trace.length b))
  in
  List.find_map
    (fun t ->
      let acts = Array.of_list t in
      witness_on vol acts ta
        ~elim:(fun ws -> eliminability ?proper vol (wildcardise acts ws))
        ~belongs:(fun ws -> belongs_to (wildcardise acts ws))
      |> Option.map (fun (ws, kept) -> { wild = wildcardise acts ws; kept }))
    candidates

(* Memo tables keyed by every element, not by [Hashtbl.hash]'s first
   few list cells. *)
module Trace_tbl = Hashtbl.Make (struct
  type t = Trace.t

  let equal = Trace.equal
  let hash t = List.fold_left (fun h a -> (h * 31) + Action.hash a) 0 t
end)

module Gen_tbl = Hashtbl.Make (struct
  type t = int * int list

  let equal (a, xs) (b, ys) = a = b && List.equal Int.equal xs ys
  let hash (a, xs) = List.fold_left (fun h x -> (h * 31) + x) a xs
end)

(* The original traceset's trie, numbered: node 0 is the empty trace and
   node [i > 0] extends node [parent.(i)] by [act.(i)], interned as
   [sym.(i)].  [kids.(i)] are its children and [height.(i)] the length
   of the longest path below it. *)
type index = {
  act : Action.t array;
  sym : int array;
  droppable : bool array;
  parent : int array;
  kids : int array array;
  height : int array;
  symbols : (Action.t, int) Hashtbl.t;
}

let index vol ts =
  let n = Traceset.cardinal ts in
  let act = Array.make n (Action.Start 0) in
  let sym = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let kids = Array.make n [||] in
  let height = Array.make n 0 in
  let symbols = Hashtbl.create 64 in
  let intern a =
    match Hashtbl.find_opt symbols a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length symbols in
        Hashtbl.add symbols a i;
        i
  in
  let next = ref 0 in
  let rec visit p a s =
    let id = !next in
    incr next;
    act.(id) <- a;
    parent.(id) <- p;
    if p >= 0 then sym.(id) <- intern a;
    let cs = List.map (fun (a, c) -> visit id a c) (Traceset.children [] s) in
    kids.(id) <- Array.of_list cs;
    height.(id) <- List.fold_left (fun h c -> max h (height.(c) + 1)) 0 cs;
    id
  in
  ignore (visit (-1) (Action.Start 0) ts);
  {
    act;
    sym;
    droppable = Array.map (droppable vol) act;
    parent;
    kids;
    height;
    symbols;
  }

let trace_of idx node =
  let rec go acc i =
    if i <= 0 then acc else go (idx.act.(i) :: acc) idx.parent.(i)
  in
  Array.of_list (go [] node)

(* The elimination-closure search.  A member of [T] is its own witness.
   Otherwise the candidates are the nodes of [T]'s trie that a walk
   reaches by keeping the query's actions in order and skipping
   [droppable] others, so every witness's original trace lies on such a
   walk.  Walk states and candidates are keyed by node number; each
   candidate's trace and eliminability, and each generalisation's
   belongs-to check, are computed once for all queries. *)
let memoised_member ?proper vol ~original ~universe =
  let idx = lazy (index vol original) in
  let members = Trace_tbl.create 97 in
  let nodes = Hashtbl.create 97 in
  let belongs_memo = Gen_tbl.create 97 in
  let node_info idx node =
    match Hashtbl.find_opt nodes node with
    | Some info -> info
    | None ->
        let acts = trace_of idx node in
        let e0 =
          eliminability ?proper vol (Wildcard.of_trace (Array.to_list acts))
        in
        Hashtbl.add nodes node (acts, e0);
        (acts, e0)
  in
  let witnessed_on idx node ta =
    let acts, e0 = node_info idx node in
    let elim = function
      | [] -> e0
      | ws -> eliminability ?proper vol (wildcardise acts ws)
    in
    let belongs = function
      | [] -> true
      | ws -> (
          match Gen_tbl.find_opt belongs_memo (node, ws) with
          | Some b -> b
          | None ->
              let b =
                Traceset.belongs_to original (wildcardise acts ws) ~universe
              in
              Gen_tbl.add belongs_memo (node, ws) b;
              b)
    in
    Option.is_some (witness_on vol ~elim ~belongs acts ta)
  in
  let search idx ta syms =
    let m = Array.length ta in
    let seen = Hashtbl.create 64 in
    let exception Found in
    let rec walk node k =
      let state = (node * (m + 1)) + k in
      if idx.height.(node) >= m - k && not (Hashtbl.mem seen state) then begin
        Hashtbl.add seen state ();
        if k = m && witnessed_on idx node ta then raise Found;
        Array.iter
          (fun c ->
            if k < m && idx.sym.(c) = syms.(k) then walk c (k + 1);
            if idx.droppable.(c) then walk c k)
          idx.kids.(node)
      end
    in
    match walk 0 0 with () -> false | exception Found -> true
  in
  fun t ->
    (* one walk down the trie: cheaper to repeat than to memoise *)
    Traceset.mem t original
    ||
    match Trace_tbl.find_opt members t with
    | Some b -> b
    | None ->
        let idx = Lazy.force idx in
        let ta = Array.of_list t in
        (* every kept action is an action of [T] *)
        let sym a =
          Option.value ~default:(-1) (Hashtbl.find_opt idx.symbols a)
        in
        let syms = Array.map sym ta in
        let b = Array.for_all (fun i -> i >= 0) syms && search idx ta syms in
        Trace_tbl.add members t b;
        b

let is_member = memoised_member

let find_unwitnessed ?proper vol ~original ~universe ~transformed =
  let mem = memoised_member ?proper vol ~original ~universe in
  List.find_opt (fun t -> not (mem t)) (Traceset.to_list transformed)

let is_elimination ?proper vol ~original ~universe ~transformed =
  Option.is_none (find_unwitnessed ?proper vol ~original ~universe ~transformed)
