(* The heartbeat sampler: a ticker domain that periodically freezes the
   global metrics registry plus a caller-supplied progress view into
   versioned JSONL snapshot lines, optionally echoing a one-line
   progress summary to stderr for interactive runs.

   Design constraints, in order:

   - Zero hot-path cost.  The sampler *pulls*: the explorer's hot loops
     are completely unchanged, and the only coupling is the progress
     closure handed to [start] (which reads word-atomic mutable fields
     of the stats records still counting — racy but never torn).
     Disabled, the whole module is one flag read ([enabled]).

   - Monotone snapshots.  Each tick reads the registry and the records
     still counting under the explorer's live lock (inside the
     progress closure), and a record is published under the same lock
     as it leaves the in-flight set, so a unit of work is counted
     exactly once — either still counting or already published, never
     both, never neither.  Consecutive snapshots therefore never
     decrease in any cumulative counter.

   - The final snapshot equals the end-of-run registry.  [stop] takes
     one last sample after callers have finished publishing, then joins
     the ticker, so line [seq = last] is the same view [Metrics.global]
     renders at exit. *)

let schema = "heartbeat/v1"

type t = {
  interval : float;  (** seconds between ticks *)
  progress : unit -> (string * Json.t) list;
  oc : out_channel option;
  echo : bool;
  seq : int ref;  (** ticks emitted so far (sampler domain only) *)
  stop_flag : bool Atomic.t;
  mutable last_states : float;  (** for the derived states/sec *)
  mutable last_ts : float;
  mutable ticker : unit Domain.t option;
}

let on = ref false
let enabled () = !on

(* One running sampler per process (mirrors Tracer's process-global
   sink); [start] while running stops the previous one. *)
let current : t option ref = ref None

let progress_states fields =
  match List.assoc_opt "states" fields with
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> 0.

let sample t =
  let ts = Clock.now () in
  let fields = t.progress () in
  let states = progress_states fields in
  let dt = ts -. t.last_ts in
  let rate =
    if !(t.seq) > 0 && dt > 0. && states > t.last_states then
      (states -. t.last_states) /. dt
    else 0.
  in
  t.last_states <- states;
  t.last_ts <- ts;
  let line =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("seq", Json.Int !(t.seq));
        ("ts", Json.Float ts);
        ("progress", Json.Obj (fields @ [ ("states_per_s", Json.Float rate) ]));
        ("metrics", Metrics.to_json Metrics.global);
      ]
  in
  incr t.seq;
  (match t.oc with
  | Some oc ->
      output_string oc (Json.to_string line);
      output_char oc '\n';
      flush oc
  | None -> ());
  if t.echo then begin
    let field name =
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> string_of_int n
      | Some (Json.Float f) -> Printf.sprintf "%.0f" f
      | _ -> "0"
    in
    Printf.eprintf "\rheartbeat #%d: %s states (%.0f/s), %s edges, frontier %s%!"
      (!(t.seq) - 1) (field "states") rate (field "edges")
      (field "peak_frontier")
  end

(* The ticker sleeps in short slices so [stop] is never more than one
   slice away from being honoured, whatever the interval. *)
let rec ticker_loop t =
  if not (Atomic.get t.stop_flag) then begin
    let slice = Float.min t.interval 0.01 in
    let rec doze left =
      if left > 0. && not (Atomic.get t.stop_flag) then begin
        Unix.sleepf (Float.min slice left);
        doze (left -. slice)
      end
    in
    doze t.interval;
    if not (Atomic.get t.stop_flag) then begin
      sample t;
      ticker_loop t
    end
  end

let stop () =
  match !current with
  | None -> ()
  | Some t ->
      current := None;
      on := false;
      Atomic.set t.stop_flag true;
      Option.iter Domain.join t.ticker;
      t.ticker <- None;
      (* the final sample runs after every publish the caller awaited,
         so its metrics object equals the end-of-run registry *)
      sample t;
      if t.echo then prerr_newline ();
      Option.iter close_out t.oc

let start ?path ?(echo = false) ~interval_ms progress =
  stop ();
  let interval = Float.max 0.001 (float_of_int interval_ms /. 1000.) in
  let t =
    {
      interval;
      progress;
      oc = Option.map open_out path;
      echo;
      seq = ref 0;
      stop_flag = Atomic.make false;
      last_states = 0.;
      last_ts = Clock.now ();
      ticker = None;
    }
  in
  current := Some t;
  on := true;
  t.ticker <- Some (Domain.spawn (fun () -> ticker_loop t))

(* ------------------------------------------------------------------ *)
(* Reading heartbeats back (tests, future `drfopt serve /stats`)       *)
(* ------------------------------------------------------------------ *)

type line = {
  l_seq : int;
  l_ts : float;
  l_progress : (string * Json.t) list;
  l_metrics : Json.t;
}

let line_of_json j =
  match
    ( Json.member "schema" j,
      Json.member "seq" j,
      Json.member "ts" j,
      Json.member "progress" j,
      Json.member "metrics" j )
  with
  | Some (Json.String s), _, _, _, _ when s <> schema ->
      Error (Printf.sprintf "unsupported heartbeat schema %S" s)
  | Some _, Some seq, Some ts, Some (Json.Obj fields), Some metrics -> (
      match (Json.to_int seq, Json.to_float ts) with
      | Some l_seq, Some l_ts ->
          Ok { l_seq; l_ts; l_progress = fields; l_metrics = metrics }
      | _ -> Error "heartbeat line: non-numeric seq/ts")
  | _ -> Error "heartbeat line: missing field"

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | l -> (
            match Json.of_string l with
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok j -> (
                match line_of_json j with
                | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
                | Ok hb -> go (lineno + 1) (hb :: acc)))
      in
      go 1 [])

let progress_int l name =
  match List.assoc_opt name l.l_progress with
  | Some (Json.Int n) -> Some n
  | Some (Json.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
