open Safeopt_trace

type t = Value.t list

let equal = List.equal Value.equal
let compare = List.compare Value.compare
let pp = Fmt.(brackets (list ~sep:semi Value.pp))
let to_string = Fmt.to_to_string pp

module Set = struct
  include Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let pp ppf s =
    Fmt.(braces (list ~sep:semi pp)) ppf (elements s)

  let rec list_prefixes : elt -> elt list = function
    | [] -> [ [] ]
    | v :: rest -> [] :: List.map (fun p -> v :: p) (list_prefixes rest)

  let is_prefix_closed s =
    for_all (fun b -> List.for_all (fun p -> mem p s) (list_prefixes b)) s

  let is_strict_prefix a b =
    let rec go a b =
      match (a, b) with
      | [], [] -> false
      | [], _ :: _ -> true
      | _, [] -> false
      | x :: a, y :: b -> Value.equal x y && go a b
    in
    go a b

  let maximal s =
    elements s
    |> List.filter (fun b -> not (exists (fun b' -> is_strict_prefix b b') s))
end
