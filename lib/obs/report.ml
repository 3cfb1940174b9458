type span_row = {
  sr_id : int;
  sr_name : string;
  sr_domain : int;
  sr_start : float;
  sr_stop : float;
  sr_parent : int;
  sr_attrs : (string * Event.value) list;
}

type t = {
  events : int;
  spans : span_row list;
  phases : Profile.agg list;
  wall : float;
  counters : (string * float) list;
}

let aggregate (events : Event.t list) =
  let begins : (int, span_row) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let counters = ref [] in
  let wall = ref 0. in
  List.iter
    (fun (e : Event.t) ->
      if e.ts > !wall then wall := e.ts;
      match e.kind with
      | Event.Begin ->
          let row =
            {
              sr_id = e.id;
              sr_name = e.name;
              sr_domain = e.domain;
              sr_start = e.ts;
              sr_stop = Float.nan;
              sr_parent = e.parent;
              sr_attrs = e.attrs;
            }
          in
          Hashtbl.replace begins e.id row;
          order := e.id :: !order
      | Event.End -> (
          match Hashtbl.find_opt begins e.id with
          | None -> ()
          | Some row ->
              Hashtbl.replace begins e.id
                { row with sr_stop = e.ts; sr_attrs = row.sr_attrs @ e.attrs })
      | Event.Instant -> ()
      | Event.Counter ->
          let v =
            match List.assoc_opt "v" e.attrs with
            | Some (Event.Float f) -> f
            | Some (Event.Int i) -> float_of_int i
            | _ -> Float.nan
          in
          if List.mem_assoc e.name !counters then
            counters := List.map (fun (n, old) -> if n = e.name then (n, v) else (n, old)) !counters
          else counters := (e.name, v) :: !counters)
    events;
  let spans = List.rev !order |> List.map (fun id -> Hashtbl.find begins id) in
  (* total descending with the name as tie-break: a deterministic
     ordering whatever order the spans were emitted in *)
  let phases =
    List.sort
      (fun (a : Profile.agg) (b : Profile.agg) ->
        match Float.compare b.a_total a.a_total with
        | 0 -> String.compare a.a_name b.a_name
        | c -> c)
      (Profile.aggregate events)
  in
  {
    events = List.length events;
    spans;
    phases;
    wall = !wall;
    counters = List.rev !counters;
  }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
            match Json.of_string line with
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok j -> (
                match Event.of_json j with
                | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
                | Ok e -> go (lineno + 1) (e :: acc)))
      in
      go 1 [])

let span_wall r = if Float.is_nan r.sr_stop then None else Some (r.sr_stop -. r.sr_start)

let span_attr r k =
  (* end attrs were appended after begin attrs; last binding wins *)
  List.fold_left
    (fun acc (k', v) -> if k' = k then Some v else acc)
    None r.sr_attrs

let attr_str r k = match span_attr r k with Some (Event.Str s) -> s | _ -> "-"

let attr_int r k =
  match span_attr r k with
  | Some (Event.Int i) -> string_of_int i
  | Some (Event.Float f) -> Printf.sprintf "%g" f
  | _ -> "-"

let ms w = Printf.sprintf "%.3fms" (w *. 1e3)

let pp ppf t =
  let open Format in
  let ended = List.length (List.filter (fun r -> not (Float.is_nan r.sr_stop)) t.spans) in
  fprintf ppf "trace: %d events, %d spans (%d closed), wall %.3fms@."
    t.events (List.length t.spans) ended (t.wall *. 1e3);
  if t.phases <> [] then begin
    fprintf ppf "@.phases:@.";
    fprintf ppf "  %-28s %5s %12s %12s %12s@." "phase" "count" "total" "self"
      "mean";
    List.iter
      (fun (a : Profile.agg) ->
        fprintf ppf "  %-28s %5d %12s %12s %12s@." a.a_name a.a_count
          (ms a.a_total) (ms a.a_self)
          (ms (a.a_total /. float_of_int a.a_count)))
      t.phases
  end;
  let passes = List.filter (fun r -> r.sr_name = "pass") t.spans in
  if passes <> [] then begin
    fprintf ppf "@.passes:@.";
    fprintf ppf "  %-12s %5s %5s %8s %12s %12s@." "pass" "iters" "sites"
      "verdict" "validation" "wall";
    List.iter
      (fun r ->
        let wall = match span_wall r with Some w -> ms w | None -> "-" in
        let vwall =
          match span_attr r "validation_wall" with
          | Some (Event.Float f) -> ms f
          | _ -> "-"
        in
        fprintf ppf "  %-12s %5s %5s %8s %12s %12s@." (attr_str r "pass")
          (attr_int r "iterations") (attr_int r "sites") (attr_str r "verdict")
          vwall wall)
      passes
  end;
  if t.counters <> [] then begin
    fprintf ppf "@.counters:@.";
    List.iter
      (fun (name, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then
          fprintf ppf "  %-28s %d@." name (int_of_float v)
        else fprintf ppf "  %-28s %g@." name v)
      t.counters
  end
