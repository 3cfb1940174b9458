type t =
  | Read of Location.t * Value.t
  | Write of Location.t * Value.t
  | Lock of Monitor.t
  | Unlock of Monitor.t
  | External of Value.t
  | Start of Thread_id.t
  | Rmw of Location.t * Value.t * Value.t

let equal a b =
  match (a, b) with
  | Read (l1, v1), Read (l2, v2) | Write (l1, v1), Write (l2, v2) ->
      Location.equal l1 l2 && Value.equal v1 v2
  | Lock m1, Lock m2 | Unlock m1, Unlock m2 -> Monitor.equal m1 m2
  | External v1, External v2 -> Value.equal v1 v2
  | Start t1, Start t2 -> Thread_id.equal t1 t2
  | Rmw (l1, r1, w1), Rmw (l2, r2, w2) ->
      Location.equal l1 l2 && Value.equal r1 r2 && Value.equal w1 w2
  | (Read _ | Write _ | Lock _ | Unlock _ | External _ | Start _ | Rmw _), _
    ->
      false

let tag = function
  | Read _ -> 0
  | Write _ -> 1
  | Lock _ -> 2
  | Unlock _ -> 3
  | External _ -> 4
  | Start _ -> 5
  | Rmw _ -> 6

let compare a b =
  match (a, b) with
  | Read (l1, v1), Read (l2, v2) | Write (l1, v1), Write (l2, v2) ->
      let c = Location.compare l1 l2 in
      if c <> 0 then c else Value.compare v1 v2
  | Lock m1, Lock m2 | Unlock m1, Unlock m2 -> Monitor.compare m1 m2
  | External v1, External v2 -> Value.compare v1 v2
  | Start t1, Start t2 -> Thread_id.compare t1 t2
  | Rmw (l1, r1, w1), Rmw (l2, r2, w2) ->
      let c = Location.compare l1 l2 in
      if c <> 0 then c
      else
        let c = Value.compare r1 r2 in
        if c <> 0 then c else Value.compare w1 w2
  | _ -> Int.compare (tag a) (tag b)

let hash = Hashtbl.hash

let pp ppf = function
  | Read (l, v) -> Fmt.pf ppf "R[%a=%a]" Location.pp l Value.pp v
  | Write (l, v) -> Fmt.pf ppf "W[%a=%a]" Location.pp l Value.pp v
  | Lock m -> Fmt.pf ppf "L[%a]" Monitor.pp m
  | Unlock m -> Fmt.pf ppf "U[%a]" Monitor.pp m
  | External v -> Fmt.pf ppf "X(%a)" Value.pp v
  | Start t -> Fmt.pf ppf "S(%a)" Thread_id.pp t
  | Rmw (l, r, w) ->
      Fmt.pf ppf "U[%a:%a\xE2\x86\x92%a]" Location.pp l Value.pp r Value.pp w

let to_string = Fmt.to_to_string pp

(* Shape predicates *)

let is_read = function Read _ -> true | _ -> false
let is_write = function Write _ | Rmw _ -> true | _ -> false
let is_access = function Read _ | Write _ | Rmw _ -> true | _ -> false
let is_lock = function Lock _ -> true | _ -> false
let is_unlock = function Unlock _ -> true | _ -> false
let is_external = function External _ -> true | _ -> false
let is_start = function Start _ -> true | _ -> false
let is_rmw = function Rmw _ -> true | _ -> false

let location = function
  | Read (l, _) | Write (l, _) | Rmw (l, _, _) -> Some l
  | _ -> None

let accesses a l =
  match location a with Some l' -> Location.equal l l' | None -> false

let value = function
  | Read (_, v) | Write (_, v) | External v -> Some v
  | Rmw (_, _, w) -> Some w
  | Lock _ | Unlock _ | Start _ -> None

let monitor = function Lock m | Unlock m -> Some m | _ -> None

(* Volatility-sensitive classification.  An RMW reads and writes in one
   indivisible step and synchronises like a volatile access regardless
   of its location's volatility (section 3's acquire/release roles):
   it is an acquire {e and} a release, never a "normal" access. *)

let is_volatile_access vol = function
  | Read (l, _) | Write (l, _) | Rmw (l, _, _) -> Location.Volatile.mem vol l
  | _ -> false

let is_volatile_read vol = function
  | Read (l, _) -> Location.Volatile.mem vol l
  | _ -> false

let is_volatile_write vol = function
  | Write (l, _) -> Location.Volatile.mem vol l
  | _ -> false

let is_normal_access vol = function
  | Read (l, _) | Write (l, _) -> not (Location.Volatile.mem vol l)
  | _ -> false

let is_normal_read vol = function
  | Read (l, _) -> not (Location.Volatile.mem vol l)
  | _ -> false

let is_acquire vol a = is_lock a || is_volatile_read vol a || is_rmw a
let is_release vol a = is_unlock a || is_volatile_write vol a || is_rmw a
let is_sync vol a = is_acquire vol a || is_release vol a
let is_sync_or_external vol a = is_sync vol a || is_external a

(* Two RMWs of the same location never conflict: they are totally
   ordered by their atomicity (like two volatile accesses).  An RMW
   against a {e plain} access of the same non-volatile location is still
   a race — mixing atomic and non-atomic accesses is unsynchronised. *)
let conflicting vol a b =
  match (location a, location b) with
  | Some la, Some lb ->
      Location.equal la lb
      && (not (Location.Volatile.mem vol la))
      && (is_write a || is_write b)
      && not (is_rmw a && is_rmw b)
  | _ -> false

let release_acquire_pair vol a b =
  match (a, b) with
  | Unlock m1, Lock m2 -> Monitor.equal m1 m2
  | Write (l1, _), Read (l2, _) ->
      Location.equal l1 l2 && Location.Volatile.mem vol l1
  | Rmw (l1, _, _), Rmw (l2, _, _) -> Location.equal l1 l2
  | Rmw (l1, _, _), Read (l2, _) ->
      Location.equal l1 l2 && Location.Volatile.mem vol l1
  | Write (l1, _), Rmw (l2, _, _) ->
      Location.equal l1 l2 && Location.Volatile.mem vol l1
  | _ -> false

(* An RMW is both an acquire and a release, so it moves in neither
   direction: exclude it from the roach-motel relation outright. *)
let reorderable vol a b =
  let non_conflicting_normal x y =
    is_normal_access vol y && not (conflicting vol x y)
  in
  (not (is_rmw a || is_rmw b))
  && ((is_normal_access vol a
      && (non_conflicting_normal a b || is_acquire vol b || is_external b))
     || is_normal_access vol b
        && (non_conflicting_normal b a || is_release vol a || is_external a))
