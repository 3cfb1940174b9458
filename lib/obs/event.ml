type kind = Begin | End | Instant | Counter

type value = Str of string | Int of int | Float of float | Bool of bool

type t = {
  kind : kind;
  name : string;
  id : int;
  parent : int;
  domain : int;
  ts : float;
  attrs : (string * value) list;
}

let kind_str = function Begin -> "b" | End -> "e" | Instant -> "i" | Counter -> "c"

let value_to_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let to_json e =
  let fields = ref [] in
  let put k v = fields := (k, v) :: !fields in
  if e.attrs <> [] then
    put "at" (Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) e.attrs));
  put "ts" (Json.Float e.ts);
  if e.domain <> 0 then put "dom" (Json.Int e.domain);
  if e.parent >= 0 then put "par" (Json.Int e.parent);
  if e.id >= 0 then put "id" (Json.Int e.id);
  if e.name <> "" then put "name" (Json.String e.name);
  put "k" (Json.String (kind_str e.kind));
  Json.Obj !fields

let of_json j =
  let ( let* ) = Result.bind in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int_or k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_int) in
  let* kind =
    match str "k" with
    | Some "b" -> Ok Begin
    | Some "e" -> Ok End
    | Some "i" -> Ok Instant
    | Some "c" -> Ok Counter
    | Some k -> Error (Printf.sprintf "unknown event kind %S" k)
    | None -> Error "missing event kind"
  in
  let* ts =
    match Option.bind (Json.member "ts" j) Json.to_float with
    | Some ts -> Ok ts
    | None -> Error "missing ts"
  in
  let attrs =
    match Json.member "at" j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.String s -> Some (k, Str s)
            | Json.Int i -> Some (k, Int i)
            | Json.Float f -> Some (k, Float f)
            | Json.Bool b -> Some (k, Bool b)
            | _ -> None)
          fields
    | _ -> []
  in
  Ok
    {
      kind;
      name = Option.value ~default:"" (str "name");
      id = int_or "id" (-1);
      parent = int_or "par" (-1);
      domain = int_or "dom" 0;
      ts;
      attrs;
    }
