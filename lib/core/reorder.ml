open Safeopt_trace

type f = int array

let is_permutation f =
  let n = Array.length f in
  let seen = Array.make n false in
  Array.for_all
    (fun j ->
      j >= 0 && j < n
      &&
      if seen.(j) then false
      else begin
        seen.(j) <- true;
        true
      end)
    f

let is_reordering_function vol t f =
  let arr = Array.of_list t in
  let n = Array.length arr in
  Array.length f = n && is_permutation f
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if f.(j) < f.(i) && not (Action.reorderable vol arr.(j) arr.(i)) then
        ok := false
    done
  done;
  !ok

let depermute_prefix f t n =
  List.mapi (fun k a -> (k, a)) t
  |> List.filter (fun (k, _) -> k < n)
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare f.(k1) f.(k2))
  |> List.map snd

let depermute f t = depermute_prefix f t (List.length t)

let de_permutes vol f t ~mem =
  is_reordering_function vol t f
  && List.for_all
       (fun n -> mem (depermute_prefix f t n))
       (List.init (List.length t + 1) Fun.id)

let identity n = Array.init n Fun.id

(* Search.  We maintain the current de-permutation of the prefix as a
   list of transformed-trace indices (in reconstructed-original order).
   Processing index [k], we may insert it at any position whose suffix
   contains only indices [i < k] with [t'_k] reorderable with [t'_i];
   the resulting sequence (as actions) must be in the original
   traceset.  On success the final arrangement determines [f]. *)
let find vol t ~mem =
  let arr = Array.of_list t in
  let n = Array.length arr in
  let exception Found of int list in
  let rec go k arrangement =
    if k = n then raise (Found arrangement)
    else begin
      let rec insertions prefix suffix =
        (* Try inserting k between prefix and suffix. *)
        (if
           List.for_all (fun i -> Action.reorderable vol arr.(k) arr.(i)) suffix
         then
           let candidate = prefix @ [ k ] @ suffix in
           let as_trace = List.map (fun i -> arr.(i)) candidate in
           if mem as_trace then go (k + 1) candidate);
        match suffix with
        | [] -> ()
        | x :: rest -> insertions (prefix @ [ x ]) rest
      in
      insertions [] arrangement
    end
  in
  if not (mem (depermute_prefix (identity n) t 0)) then None
  else
    try
      go 0 [];
      None
    with Found arrangement ->
      let f = Array.make n 0 in
      List.iteri (fun pos k -> f.(k) <- pos) arrangement;
      Some f

let find_undepermutable vol ~mem ~transformed =
  List.find_opt
    (fun t -> Option.is_none (find vol t ~mem))
    (Traceset.to_list transformed)

let is_reordering_of_oracle vol ~mem ~transformed =
  Option.is_none (find_undepermutable vol ~mem ~transformed)

let is_reordering vol ~original ~transformed =
  is_reordering_of_oracle vol
    ~mem:(fun t -> Traceset.mem t original)
    ~transformed

(* --- The reorderability matrix --- *)

let matrix_headers = [ "W"; "R"; "Acq"; "Rel"; "Ext"; "U" ]

let representative ~same_location ~first =
  let loc = if first || same_location then "x" else "y" in
  function
  | 0 -> Action.Write (loc, 1)
  | 1 -> Action.Read (loc, 1)
  | 2 -> Action.Lock "m"
  | 3 -> Action.Unlock "m"
  | 4 -> Action.External 1
  | 5 -> Action.Rmw (loc, 0, 1)
  | _ -> invalid_arg "representative"

let matrix ~same_location =
  let vol = Location.Volatile.none in
  let n = List.length matrix_headers in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let a = representative ~same_location ~first:true i
          and b = representative ~same_location ~first:false j in
          Action.reorderable vol a b))

let pp_matrix ppf () =
  let render title m =
    Fmt.pf ppf "%s@." title;
    Fmt.pf ppf "%8s" "a \\ b";
    List.iter (fun h -> Fmt.pf ppf "%6s" h) matrix_headers;
    Fmt.pf ppf "@.";
    List.iteri
      (fun i h ->
        Fmt.pf ppf "%8s" h;
        Array.iter
          (fun b -> Fmt.pf ppf "%6s" (if b then "yes" else "x"))
          m.(i);
        Fmt.pf ppf "@.")
      matrix_headers
  in
  render "distinct locations (x <> y):" (matrix ~same_location:false);
  render "same location (x = y):" (matrix ~same_location:true)
