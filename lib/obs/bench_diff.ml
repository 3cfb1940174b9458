(* Noise-aware comparison of two bench records: the engine behind
   `drfopt bench diff old.json new.json`.

   A record's experiments pair by name and compare by rate, with the
   wall only as the noise gate: a sub-floor timing is scheduler noise,
   and CI runners are noisy machines.  Its claims pair by text, and a
   claim that held must still hold.  Nothing else in the record is
   read: configuration ([quick], reps, jobs, [degraded]) and the
   reps-sized walls under [detail] would compare unlike with like. *)

type status =
  | Ok_same
  | Improved of float
  | Regressed of float
  | Noise
  | Claim_broken

type row = {
  r_path : string;
  r_old : float;
  r_new : float option;
  r_status : status;
}

type t = { rows : row list; compared : int; regressions : int }

let default_threshold = 0.25
let default_min_wall = 0.05

(* (name, (rate, wall)) of every experiment carrying all three. *)
let experiments j =
  match Json.member "experiments" j with
  | Some (Json.List items) ->
      List.filter_map
        (fun e ->
          let num k = Option.bind (Json.member k e) Json.to_float in
          match
            (Option.bind (Json.member "name" e) Json.to_str,
             num "units_per_sec", num "wall_s")
          with
          | Some name, Some rate, Some wall -> Some (name, (rate, wall))
          | _ -> None)
        items
  | _ -> []

let claims j =
  match Json.member "claims" j with
  | Some (Json.Obj fields) ->
      List.filter_map
        (function text, Json.Bool b -> Some (text, b) | _ -> None)
        fields
  | _ -> []

let rate_row ~threshold ~min_wall news (name, (old_rate, old_wall)) =
  Option.map
    (fun (new_rate, new_wall) ->
      let status =
        if Float.max old_wall new_wall < min_wall then Noise
        else if old_rate = 0. then Ok_same
        else
          let bad = (old_rate -. new_rate) /. old_rate in
          if bad > threshold then Regressed bad
          else if bad < -.threshold then Improved (-.bad)
          else Ok_same
      in
      {
        r_path = "experiments[" ^ name ^ "].units_per_sec";
        r_old = old_rate;
        r_new = Some new_rate;
        r_status = status;
      })
    (List.assoc_opt name news)

let claim_row news (text, held) =
  let now = List.assoc_opt text news in
  let num b = if b then 1. else 0. in
  {
    r_path = "claims[" ^ text ^ "]";
    r_old = num held;
    r_new = Option.map num now;
    r_status = (if held && now <> Some true then Claim_broken else Ok_same);
  }

let diff ?(threshold = default_threshold) ?(min_wall = default_min_wall)
    ~old_json ~new_json () =
  let rows =
    List.filter_map
      (rate_row ~threshold ~min_wall (experiments new_json))
      (experiments old_json)
    @ List.map (claim_row (claims new_json)) (claims old_json)
  in
  let count p = List.length (List.filter (fun r -> p r.r_status) rows) in
  let compared = count (fun s -> s <> Noise) in
  if compared = 0 then
    Error "no comparable points (are these the same benchmark's files?)"
  else
    Ok
      {
        rows;
        compared;
        regressions =
          count (function Regressed _ | Claim_broken -> true | _ -> false);
      }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string s))

let diff_files ?threshold ?min_wall old_path new_path =
  match (read_file old_path, read_file new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_json, Ok new_json -> diff ?threshold ?min_wall ~old_json ~new_json ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let regressed t = t.regressions > 0

let value_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let pp ppf t =
  let open Format in
  (* claim texts run long: widen the first column to fit them *)
  let w =
    List.fold_left (fun w r -> max w (String.length r.r_path)) 44 t.rows
  in
  fprintf ppf "  %-*s %12s %12s  %s@." w "metric" "old" "new" "verdict";
  List.iter
    (fun r ->
      let verdict =
        match r.r_status with
        | Ok_same -> "ok"
        | Improved d -> Printf.sprintf "improved %.0f%%" (d *. 100.)
        | Regressed d -> Printf.sprintf "REGRESSED %.0f%%" (d *. 100.)
        | Noise -> "skipped (noise floor)"
        | Claim_broken -> "CLAIM BROKEN"
      in
      fprintf ppf "  %-*s %12s %12s  %s@." w r.r_path (value_string r.r_old)
        (Option.fold ~none:"missing" ~some:value_string r.r_new)
        verdict)
    t.rows;
  fprintf ppf "%d compared, %d regression%s@." t.compared t.regressions
    (if t.regressions = 1 then "" else "s")
