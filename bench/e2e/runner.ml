(* Set-up, the timed loop, the traced run, and the metrics they report.

   Load shape: one closed-loop client at jobs = 1 -- the next input
   starts when the previous verdict is in -- so no domain is spawned and
   the isolated workload can fork. *)

module Obs = Safeopt_obs
module Clock = Obs.Clock
module Json = Obs.Json

type config = {
  seed : int;
  seconds : float;  (** timed rounds continue until this much has passed *)
  rounds : int option;  (** a fixed number of timed rounds instead *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  random_count : int;  (** inputs of [random-pipelines] *)
}

let default =
  {
    seed = 1;
    seconds = 10.;
    rounds = None;
    setups = 3;
    random_count = 600;
  }

(* p90 must leave at least ten samples above it. *)
let min_samples = 100

type report = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float option) list;
      (** name, unit, value; [None] prints as null *)
  notes : string list;  (** human-readable lines *)
}

let end_to_end =
  [
    ("setup_s", "s");
    ("verdict_ms_p50", "ms");
    ("verdict_ms_p90", "ms");
    ("verdicts_per_s", "1/s");
    ("decided_share", "ratio");
    ("correct_share", "ratio");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("lang.parse.self_s", "s");
    ("lang.parse.calls", "count");
    ("lang.parse.minor_words", "words");
    ("opt.rewrite.self_s", "s");
    ("opt.rewrite.pass_runs", "count");
    ("opt.rewrite.sites", "count");
    ("opt.rewrite.minor_words", "words");
    ("opt.validate.self_s", "s");
    ("opt.validate.validations", "count");
    ("opt.validate.static_hits", "count");
    ("opt.validate.refine_hits", "count");
    ("opt.validate.escalations", "count");
    ("opt.validate.exhaustive_runs", "count");
    ("opt.validate.fast_path_ratio", "ratio");
    ("analysis.static.self_s", "s");
    ("analysis.static.calls", "count");
    ("analysis.static.certified", "count");
    ("analysis.refine.self_s", "s");
    ("analysis.refine.calls", "count");
    ("analysis.refine.decided_ratio", "ratio");
    ("analysis.refine.wasted_s", "s");
    ("analysis.refine.traces_checked", "count");
    ("analysis.refine.minor_words", "words");
    ("analysis.refine.major_words", "words");
    ("lang.denote.self_s", "s");
    ("lang.denote.calls", "count");
    ("lang.denote.traces", "count");
    ("lang.denote.minor_words", "words");
    ("exec.explorer.self_s", "s");
    ("exec.explorer.states", "count");
    ("exec.explorer.edges", "count");
    ("exec.explorer.memo_hits", "count");
    ("exec.explorer.por_cuts", "count");
    ("exec.explorer.states_per_s", "1/s");
    ("exec.explorer.minor_words", "words");
    ("exec.explorer.major_words", "words");
    ("model.store_buffer.self_s", "s");
    ("model.store_buffer.states", "count");
    ("model.store_buffer.minor_words", "words");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

let with_units table values =
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) table

let show_input (w : Workload.t) cfg k got =
  let i = w.inputs.(k) in
  Printf.sprintf
    "WRONG VERDICT: workload %s seed %d input %d (%s): got %s, expected %s\n\
     spec: %s (validator %s, model %s)\n\
     program:\n\
     %s"
    w.wname cfg.seed k i.name
    (Workload.verdict_to_string got)
    (Workload.verdict_to_string i.expected)
    (Fmt.str "%a" Safeopt_opt.Pipeline.pp_spec i.spec)
    (Fmt.str "%a" Safeopt_opt.Validate.pp_validator i.validator)
    (Workload.Model.name i.model) i.source

(* Every verdict is checked against its known answer; a wrong one counts
   each time and is reported once per input. *)
let checker cfg (w : Workload.t) =
  let failed = ref 0 and shown = Hashtbl.create 8 and notes = ref [] in
  let check k v =
    if Workload.decided v && v <> w.inputs.(k).expected then begin
      incr failed;
      if not (Hashtbl.mem shown k) then begin
        Hashtbl.add shown k ();
        notes := show_input w cfg k v :: !notes
      end
    end
  in
  (check, failed, notes)

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* --- Set-up --------------------------------------------------------- *)

(* Input generation, parsing, reference verdicts and, for in-process
   workloads, one warm-up round.  The isolated workload is not warmed:
   its inputs run in a worker forked after set-up. *)
let setup_once cfg wname =
  let t0 = Clock.now () in
  let w = Workload.make ~random_count:cfg.random_count ~seed:cfg.seed wname in
  if not w.isolate then Array.iter (fun i -> ignore (Workload.run i)) w.inputs;
  (w, Clock.elapsed t0)

let setup cfg wname =
  let runs = List.init (max 1 cfg.setups) (fun _ -> setup_once cfg wname) in
  (fst (List.nth runs (List.length runs - 1)), Stats.median (List.map snd runs))

(* A reproducer for a reference that breaks Theorems 1-4, in place of a
   report: the run cannot measure against a wrong reference. *)
let setup_or_exit cfg wname =
  try setup cfg wname
  with Workload.Wrong_reference (i, v) ->
    let w = { Workload.wname; inputs = [| i |]; isolate = true } in
    prerr_endline (show_input w cfg 0 v);
    prerr_endline "(the exhaustive reference rejects a safe-only pipeline)";
    exit 1

(* --- Untraced run ---------------------------------------------------- *)

(* The worker of an isolated workload answers with the verdict, its time
   and the worker's peak heap. *)
let verdict_worker (w : Workload.t) =
  Isolate.create (fun k ~marker:_ ~result ->
      let v, t = Workload.run w.inputs.(k) in
      result
        (Json.to_string
           (Json.List
              [
                Json.String (Workload.verdict_to_string v);
                Json.Float t;
                Json.Int (Gc.quick_stat ()).Gc.top_heap_words;
              ])))

let isolated_verdict worker k =
  let o = Isolate.run worker ~deadline:Workload.deadline k in
  match List.map Json.of_string o.results with
  | [ Ok (Json.List [ Json.String v; t; Json.Int heap ]) ] ->
      (Workload.verdict_of_string v, Option.get (Json.to_float t), heap)
  | _ when Option.is_some o.killed_at ->
      (Workload.Undecided "deadline", Workload.deadline, 0)
  | _ -> (Workload.Undecided "worker failed", Workload.deadline, 0)

(* Each round yields its own p50, p90 and throughput, and the run reports
   their medians over rounds.  Every input recurs once per round, so a
   percentile of the pooled samples would sit inside one input's group
   of repeats and read the tail of that input's timing noise; the median
   over rounds does not.  The loop runs at least [min_samples] verdicts,
   so the pooled p90 would still leave ten samples above it. *)
let untraced cfg wname =
  let w, setup_s = setup_or_exit cfg wname in
  let n = Array.length w.inputs in
  let check, failed, errors = checker cfg w in
  let attempted = ref 0 and decided = ref 0 in
  let heap = ref 0 and p50 = ref [] and p90 = ref [] and rate = ref [] in
  let worker = if w.isolate then Some (verdict_worker w) else None in
  let t0 = Clock.now () in
  let again () =
    match cfg.rounds with
    | Some r -> List.length !rate < r
    | None -> Clock.elapsed t0 < cfg.seconds || !attempted < min_samples
  in
  while again () do
    let times = Array.make n 0. and round_decided = ref 0 in
    for k = 0 to n - 1 do
      let v, t =
        match worker with
        | Some worker ->
            let v, t, h = isolated_verdict worker k in
            heap := max !heap h;
            (v, t)
        | None -> Workload.run w.inputs.(k)
      in
      times.(k) <- t;
      if Workload.decided v then incr round_decided;
      check k v
    done;
    let busy = Array.fold_left ( +. ) 0. times in
    Array.sort Float.compare times;
    p50 := (1000. *. Stats.percentile ~pct:50 times) :: !p50;
    p90 := (1000. *. Stats.percentile ~pct:90 times) :: !p90;
    rate := (float_of_int !round_decided /. busy) :: !rate;
    (* the heap keeps creeping up over rounds, so the peak is read at a
       fixed point of the run: after set-up and the first round *)
    if !attempted = 0 && not w.isolate then
      heap := (Gc.quick_stat ()).Gc.top_heap_words;
    attempted := !attempted + n;
    decided := !decided + !round_decided
  done;
  Option.iter Isolate.stop worker;
  let failed = !failed in
  let values =
    [
      ("setup_s", setup_s);
      ("verdict_ms_p50", Stats.median !p50);
      ("verdict_ms_p90", Stats.median !p90);
      ("verdicts_per_s", Stats.median !rate);
      ("decided_share", float_of_int !decided /. float_of_int !attempted);
      ( "correct_share",
        if !decided = 0 then 0.
        else float_of_int (!decided - failed) /. float_of_int !decided );
      ("peak_heap_mb", words_to_mb !heap);
    ]
  in
  {
    workload = wname;
    correct = failed = 0;
    attempted = !attempted;
    failed;
    metrics =
      List.map (fun (k, u, v) -> (k, u, Some v)) (with_units end_to_end values);
    notes =
      Printf.sprintf
        "%d verdicts in %d rounds of %d inputs (%.1f s); percentiles and \
         throughput are medians over rounds"
        !attempted (List.length !rate) n (Clock.elapsed t0)
      :: List.rev !errors;
  }

(* --- Traced run ------------------------------------------------------ *)

let parse_phase j =
  match (Json.member "verdict" j, Json.member "m" j) with
  | Some (Json.String v), Some m -> (Workload.verdict_of_string v, m)
  | _ -> failwith "traced phase: bad payload"

let parse_payload s =
  match Json.of_string s with
  | Ok j -> parse_phase j
  | Error e -> failwith ("traced phase: " ^ e)

(* A worker killed mid-replay loses its spans: the time from each layer
   entry to the next is charged to that layer, and the rest of its time
   to the layer it entered last. *)
let charge_markers sums markers killed_at =
  let rec go = function
    | (l, t) :: ((_, t') :: _ as rest) ->
        Layers.bump sums ("self_s/" ^ l) (t' -. t);
        go rest
    | [ (l, t) ] -> Layers.bump sums ("self_s/" ^ l) (killed_at -. t)
    | [] -> ()
  in
  go markers

let get sums k = Option.value ~default:0. (Hashtbl.find_opt sums k)
let ratio a b = if b = 0. then 0. else a /. b

(* The per-layer metrics from the summed samples.  A registry counter
   reads null when the layer it counts ran but the counter is absent. *)
let layer_values sums =
  let g = get sums in
  let sum l m = g (m ^ "/" ^ l) in
  let layer l m = Some (sum l m) in
  let ratio_of a b = Some (ratio a b) in
  let registry name ~ran =
    match Hashtbl.find_opt sums ("registry/" ^ name) with
    | Some v -> Some v
    | None -> if ran then None else Some 0.
  in
  let explorer c =
    Option.map
      (fun v -> v -. sum "model.store_buffer" c)
      (registry ("explorer." ^ c)
         ~ran:
           (sum "exec.explorer" "calls" +. sum "model.store_buffer" "calls"
           > 0.))
  in
  [
    ("lang.parse.self_s", layer "lang.parse" "self_s");
    ("lang.parse.calls", layer "lang.parse" "calls");
    ("lang.parse.minor_words", layer "lang.parse" "minor_words");
    ("opt.rewrite.self_s", layer "opt.rewrite" "self_s");
    ("opt.rewrite.pass_runs", layer "opt.rewrite" "pass_runs");
    ( "opt.rewrite.sites",
      registry "pipeline.rewrite_sites" ~ran:(sum "opt.rewrite" "calls" > 0.) );
    ("opt.rewrite.minor_words", layer "opt.rewrite" "minor_words");
    ("opt.validate.self_s", layer "opt.validate" "self_s");
    ("opt.validate.validations", layer "opt.validate" "validations");
    ("opt.validate.static_hits", layer "opt.validate" "static_hits");
    ("opt.validate.refine_hits", layer "opt.validate" "refine_hits");
    ("opt.validate.escalations", layer "opt.validate" "escalations");
    ("opt.validate.exhaustive_runs", layer "opt.validate" "exhaustive_runs");
    ( "opt.validate.fast_path_ratio",
      ratio_of
        (sum "opt.validate" "static_hits" +. sum "opt.validate" "refine_hits")
        (sum "opt.validate" "validations") );
    ("analysis.static.self_s", layer "analysis.static" "self_s");
    ("analysis.static.calls", layer "analysis.static" "calls");
    ("analysis.static.certified", layer "analysis.static" "certified");
    ("analysis.refine.self_s", layer "analysis.refine" "self_s");
    ("analysis.refine.calls", layer "analysis.refine" "calls");
    ( "analysis.refine.decided_ratio",
      ratio_of
        (sum "analysis.refine" "decided")
        (sum "analysis.refine" "calls") );
    ("analysis.refine.wasted_s", layer "analysis.refine" "wasted_s");
    ( "analysis.refine.traces_checked",
      layer "analysis.refine" "traces_checked" );
    ("analysis.refine.minor_words", layer "analysis.refine" "minor_words");
    ("analysis.refine.major_words", layer "analysis.refine" "major_words");
    ("lang.denote.self_s", layer "lang.denote" "self_s");
    ("lang.denote.calls", layer "lang.denote" "calls");
    ("lang.denote.traces", layer "lang.denote" "traces");
    ("lang.denote.minor_words", layer "lang.denote" "minor_words");
    ("exec.explorer.self_s", layer "exec.explorer" "self_s");
    ("exec.explorer.states", explorer "states");
    ("exec.explorer.edges", explorer "edges");
    ("exec.explorer.memo_hits", explorer "memo_hits");
    ("exec.explorer.por_cuts", explorer "por_cuts");
    ( "exec.explorer.states_per_s",
      Option.map
        (fun s -> ratio s (sum "exec.explorer" "self_s"))
        (explorer "states") );
    ("exec.explorer.minor_words", layer "exec.explorer" "minor_words");
    ("exec.explorer.major_words", layer "exec.explorer" "major_words");
    ("model.store_buffer.self_s", layer "model.store_buffer" "self_s");
    ("model.store_buffer.states", layer "model.store_buffer" "states");
    ( "model.store_buffer.minor_words",
      layer "model.store_buffer" "minor_words" );
    ( "trace.unattributed_share",
      ratio_of (Float.abs (g "t_wall" -. g "attributed_s")) (g "t_wall") );
    ("trace.overhead_share", Some (ratio (g "t_wall") (g "u_wall") -. 1.));
  ]

(* Whole rounds over every input, each input in its three phases (see
   {!Layers}), until [seconds] have passed.  Sums are reported per round;
   counts repeat exactly from round to round.  One call of a heavy input
   varies by several percent, so the coverage claim compares, input by
   input, the median over rounds of the traced wall and of the attributed
   sum, over the inputs that finished all three phases. *)
let traced cfg wname =
  let w, _ = setup_or_exit { cfg with setups = 1 } wname in
  let n = Array.length w.inputs in
  let sums : Layers.sample = Hashtbl.create 64 in
  let walls = Array.make n [] in
  let check, failed, errors = checker cfg w in
  let absorb k phases =
    List.iter (fun (_, m) -> Layers.add_json sums m) phases;
    match phases with
    | [ (rv, r); (tv, t); (uv, u) ] ->
        let num j key =
          Option.value ~default:0.
            (Option.bind (Json.member key j) Json.to_float)
        in
        walls.(k) <-
          (num r "attributed_s", num t "wall", num u "wall") :: walls.(k);
        check k uv;
        if rv <> uv || tv <> uv then begin
          incr failed;
          errors :=
            Printf.sprintf
              "PHASES DISAGREE: input %d (%s): replay %s, traced %s, \
               untraced %s"
              k w.inputs.(k).name
              (Workload.verdict_to_string rv)
              (Workload.verdict_to_string tv)
              (Workload.verdict_to_string uv)
            :: !errors
        end
    | _ -> ()
  in
  let worker =
    if w.isolate then
      Some
        (Isolate.create (fun k ~marker ~result ->
             Layers.trace_input ~marker
               ~emit:(fun j -> result (Json.to_string j))
               w.inputs.(k)))
    else None
  in
  let trace k =
    match worker with
    | Some worker ->
        let o = Isolate.run worker ~deadline:Workload.deadline k in
        Option.iter (charge_markers sums o.markers) o.killed_at;
        absorb k (List.map parse_payload o.results)
    | None ->
        let phases = ref [] in
        Layers.trace_input ~marker:ignore
          ~emit:(fun j -> phases := parse_phase j :: !phases)
          w.inputs.(k);
        absorb k (List.rev !phases)
  in
  let rounds = ref 0 and t0 = Clock.now () in
  while
    match cfg.rounds with
    | Some r -> !rounds < r
    | None -> !rounds = 0 || Clock.elapsed t0 < cfg.seconds
  do
    for k = 0 to n - 1 do
      trace k
    done;
    incr rounds
  done;
  Option.iter Isolate.stop worker;
  let per_round : Layers.sample = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace per_round k (v /. float_of_int !rounds))
    sums;
  let median_sum f =
    Array.fold_left
      (fun acc l -> if l = [] then acc else acc +. Stats.median (List.map f l))
      0. walls
  in
  Hashtbl.replace per_round "attributed_s" (median_sum (fun (a, _, _) -> a));
  Hashtbl.replace per_round "t_wall" (median_sum (fun (_, t, _) -> t));
  Hashtbl.replace per_round "u_wall" (median_sum (fun (_, _, u) -> u));
  let complete = Array.fold_left (fun acc l -> acc + List.length l) 0 walls in
  let failed = !failed in
  {
    workload = wname;
    correct = failed = 0;
    attempted = !rounds * n;
    failed;
    metrics = with_units per_layer (layer_values per_round);
    notes =
      Printf.sprintf
        "%d rounds of %d inputs traced (%.1f s), %d finished all three phases"
        !rounds n (Clock.elapsed t0) complete
      :: List.rev !errors;
  }

let run ~traced:t cfg wname = if t then traced cfg wname else untraced cfg wname

let json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Json.Obj
                   [
                     ( "value",
                       match v with Some x -> Json.Float x | None -> Json.Null
                     );
                     ("unit", Json.String unit);
                   ] ))
             r.metrics) );
    ]
