(* The lib/obs telemetry layer: histogram bucketing, sharded-merge
   equality, counter exactness under real domains, event JSON
   round-trips, span-log well-formedness over random corpus runs at
   --jobs 1 and --jobs 2, and report aggregation. *)

open Safeopt_exec
open Safeopt_lang
open Safeopt_gen
module Metrics = Safeopt_obs.Metrics
module Tracer = Safeopt_obs.Tracer
module Event = Safeopt_obs.Event
module Report = Safeopt_obs.Report
module Json = Safeopt_obs.Json
module Snapshot = Safeopt_obs.Snapshot
module Profile = Safeopt_obs.Profile
module Bench_diff = Safeopt_obs.Bench_diff

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- histograms --------------------------------------------------- *)

let test_bucket_roundtrip () =
  List.iter
    (fun s ->
      let b = Metrics.bucket_of s in
      let lo, hi = Metrics.bucket_bounds b in
      check_b (Printf.sprintf "%g lands in [%g, %g)" s lo hi) true
        (lo <= s && s < hi))
    [ 0.; 1e-10; 5e-10; 1e-9; 1.5e-9; 2e-9; 1e-6; 3.2e-4; 0.5; 1.; 60.; 1e5 ];
  (* bucket edges: 2^(i-1) ns lands in bucket i, just under in i-1 *)
  List.iter
    (fun i ->
      let lo, _ = Metrics.bucket_bounds i in
      check_i (Printf.sprintf "lower edge of bucket %d" i) i
        (Metrics.bucket_of lo);
      check_i
        (Printf.sprintf "just under the edge of bucket %d" i)
        (i - 1)
        (Metrics.bucket_of (lo *. (1. -. epsilon_float))))
    [ 2; 3; 10; 30 ]

let test_histogram_counts () =
  let r = Metrics.create ~stripes:1 () in
  let h = Metrics.histogram r "h" in
  let samples = [ 1e-9; 2e-9; 1e-6; 1e-3; 1e-3; 2. ] in
  List.iter (Metrics.observe h) samples;
  check_i "count" (List.length samples) (Metrics.histogram_count h);
  (* the sum is approximated at bucket centres: within 2x of the truth *)
  let truth = List.fold_left ( +. ) 0. samples in
  let approx = Metrics.histogram_sum h in
  check_b "sum within bucket resolution" true
    (approx >= truth /. 2. && approx <= truth *. 2.);
  check_b "q=1 bound covers the max" true
    (match Metrics.quantile h 1.0 with Some hi -> hi >= 2. | None -> false);
  check_b "q=0 bound is tiny" true
    (match Metrics.quantile h 0.0 with
    | Some hi -> hi <= 2e-9
    | None -> false)

let test_quantile_edges () =
  let r = Metrics.create ~stripes:1 () in
  let empty = Metrics.histogram r "empty" in
  check_b "empty histogram has no quantile" true
    (Metrics.quantile empty 0.5 = None);
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 1e-6; 1e-6; 1e-3; 1. ];
  let first = snd (Metrics.bucket_bounds (Metrics.bucket_of 1e-6)) in
  let last = snd (Metrics.bucket_bounds (Metrics.bucket_of 1.)) in
  check_b "p=0 is the first occupied bucket" true
    (Metrics.quantile h 0. = Some first);
  check_b "p=1 is the last occupied bucket" true
    (Metrics.quantile h 1. = Some last);
  check_b "p<0 clamps to the first occupied bucket" true
    (Metrics.quantile h (-3.) = Some first);
  check_b "p>1 clamps to the last occupied bucket" true
    (Metrics.quantile h 7. = Some last);
  check_b "nan clamps to the last occupied bucket" true
    (Metrics.quantile h Float.nan = Some last)

(* --- sharded merge equality --------------------------------------- *)

let test_merge_equality () =
  (* per-worker registries merged into an accumulator equal a
     sequential registry fed the same stream: counter for counter,
     bucket for bucket *)
  let seq = Metrics.create ~stripes:1 () in
  let workers = Array.init 4 (fun _ -> Metrics.create ~stripes:1 ()) in
  let rnd = Random.State.make [| 0x0b5 |] in
  for i = 0 to 999 do
    let w = workers.(i mod 4) in
    let n = Random.State.int rnd 5 in
    Metrics.add (Metrics.counter seq "c") n;
    Metrics.add (Metrics.counter w "c") n;
    let s = Random.State.float rnd 1e-3 in
    Metrics.observe (Metrics.histogram seq "h") s;
    Metrics.observe (Metrics.histogram w "h") s
  done;
  let acc = Metrics.create ~stripes:1 () in
  Array.iter (fun w -> Metrics.merge ~into:acc w) workers;
  check_i "counter totals equal"
    (Metrics.counter_value (Metrics.counter seq "c"))
    (Metrics.counter_value (Metrics.counter acc "c"));
  Alcotest.(check (list (pair int int)))
    "histogram buckets equal"
    (Metrics.histogram_buckets (Metrics.histogram seq "h"))
    (Metrics.histogram_buckets (Metrics.histogram acc "h"));
  check_i "histogram counts equal"
    (Metrics.histogram_count (Metrics.histogram seq "h"))
    (Metrics.histogram_count (Metrics.histogram acc "h"))

let test_counter_exact_parallel () =
  (* counters are atomic per stripe, so totals are exact at any level
     of parallelism *)
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let ds =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join ds;
  check_i "4 domains x 10k increments" 40_000 (Metrics.counter_value c)

(* --- event JSON round-trips --------------------------------------- *)

let rand () = Random.State.make [| 0x0b5e; 7 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

(* Floats constrained to integer values so the %.12g writer is exact
   and structural equality is the right round-trip check. *)
let event_gen =
  let open QCheck2.Gen in
  let name_g = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let value_g =
    oneof
      [
        map (fun s -> Event.Str s) name_g;
        map (fun i -> Event.Int i) (int_range (-1000) 1000);
        map (fun i -> Event.Float (float_of_int i)) (int_range 0 1_000_000);
        map (fun b -> Event.Bool b) bool;
      ]
  in
  map
    (fun ((kind, name, id, parent), (domain, ts, attrs)) ->
      let name = if kind = Event.End then "" else name in
      let id =
        match kind with Event.Begin | Event.End -> abs id | _ -> -1
      in
      {
        Event.kind;
        name;
        id;
        parent = (if kind = Event.Begin then parent else -1);
        domain;
        ts = float_of_int ts;
        attrs;
      })
    (pair
       (quad
          (oneofl [ Event.Begin; Event.End; Event.Instant; Event.Counter ])
          name_g (int_range 0 10_000) (int_range (-1) 50))
       (triple (int_range 0 8) (int_range 0 1_000_000)
          (small_list (pair name_g value_g))))

let print_event e = Json.to_string (Event.to_json e)

let event_roundtrip =
  to_alcotest
    (QCheck2.Test.make ~name:"event JSON round-trips" ~count:500
       ~print:print_event event_gen (fun e ->
         match Json.of_string (print_event e) with
         | Error _ -> false
         | Ok j -> (
             match Event.of_json j with Ok e' -> e = e' | Error _ -> false)))

(* --- span-log well-formedness over random corpus runs ------------- *)

(* The three structural invariants [drfopt report] relies on: every
   [End] matches an earlier [Begin] (at most once), every recorded
   parent is a span that began no later, and each domain's timestamps
   are monotone in emission order. *)
let wellformed (events : Event.t list) =
  let begins = Hashtbl.create 64 and ended = Hashtbl.create 64 in
  let doms : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.for_all
    (fun (e : Event.t) ->
      let monotone =
        match Hashtbl.find_opt doms e.domain with
        | Some prev when e.ts < prev -> false
        | _ ->
            Hashtbl.replace doms e.domain e.ts;
            true
      in
      monotone
      &&
      match e.kind with
      | Event.Begin ->
          Hashtbl.replace begins e.id e.ts;
          (match Hashtbl.find_opt begins e.parent with
          | _ when e.parent = -1 -> true
          | Some pts -> pts <= e.ts
          | None -> false)
      | Event.End ->
          if Hashtbl.mem ended e.id then false
          else begin
            Hashtbl.replace ended e.id ();
            match Hashtbl.find_opt begins e.id with
            | Some bts -> bts <= e.ts
            | None -> false
          end
      | Event.Instant | Event.Counter -> true)
    events

let traced_events jobs p =
  Tracer.start Tracer.Memory;
  match
    ignore (Interp.behaviours ~fuel:24 ~jobs p);
    ignore (Interp.is_drf ~fuel:24 ~jobs p)
  with
  | () -> Tracer.stop ()
  | exception e ->
      ignore (Tracer.stop () : Event.t list);
      raise e

let span_log_wellformed jobs =
  to_alcotest
    (QCheck2.Test.make
       ~name:(Printf.sprintf "span logs well-formed at jobs %d" jobs)
       ~count:15 ~print:Generators.print_program Generators.program (fun p ->
         let evs = traced_events jobs p in
         evs <> [] && wellformed evs))

(* --- report aggregation ------------------------------------------- *)

let ev ?(name = "") ?(id = -1) ?(parent = -1) ?(domain = 0) ?(attrs = []) kind
    ts =
  { Event.kind; name; id; parent; domain; ts; attrs }

let test_report_aggregate () =
  let events =
    [
      ev Event.Begin ~name:"pipeline" ~id:0 0.0;
      ev Event.Begin ~name:"pass" ~id:1 ~parent:0
        ~attrs:[ ("pass", Event.Str "cse") ]
        0.001;
      ev Event.End ~id:1
        ~attrs:[ ("sites", Event.Int 2); ("verdict", Event.Str "ok") ]
        0.004;
      ev Event.Begin ~name:"pass" ~id:2 ~parent:0 0.005;
      ev Event.End ~id:2 0.006;
      ev Event.Begin ~name:"orphan" ~id:3 0.007;
      ev Event.End ~id:0 0.008;
      ev Event.Counter ~name:"explorer.states"
        ~attrs:[ ("v", Event.Float 10.) ]
        0.009;
      ev Event.Counter ~name:"explorer.states"
        ~attrs:[ ("v", Event.Float 24.) ]
        0.010;
    ]
  in
  let t = Report.aggregate events in
  check_i "events" 9 t.Report.events;
  check_i "spans" 4 (List.length t.Report.spans);
  check_b "wall is the last ts" true (abs_float (t.Report.wall -. 0.010) < 1e-9);
  let phase name =
    List.find_opt (fun a -> a.Profile.a_name = name) t.Report.phases
  in
  check_b "pipeline wall" true
    (match phase "pipeline" with
    | Some { Profile.a_count = 1; a_total; _ } ->
        abs_float (a_total -. 0.008) < 1e-9
    | _ -> false);
  check_b "pass wall folds both spans" true
    (match phase "pass" with
    | Some { Profile.a_count = 2; a_total; _ } ->
        abs_float (a_total -. 0.004) < 1e-9
    | _ -> false);
  (* the orphan span (no end) is clamped to the last timestamp, as the
     profile clamps it *)
  check_b "phases and profile agree on the orphan" true
    (phase "orphan"
     = List.find_opt
         (fun a -> a.Profile.a_name = "orphan")
         (Profile.aggregate events)
    && phase "orphan" <> None);
  (* end-side attributes shadow begin-side; counters keep the last value *)
  let pass1 = List.nth t.Report.spans 1 in
  check_b "merged attrs" true
    (Report.span_attr pass1 "verdict" = Some (Event.Str "ok")
    && Report.span_attr pass1 "pass" = Some (Event.Str "cse"));
  check_b "counter final value" true
    (t.Report.counters = [ ("explorer.states", 24.) ])

(* --- span-tree profiles ------------------------------------------- *)

let close f g = abs_float (f -. g) < 1e-9

let test_profile_self_total () =
  let events =
    [
      ev Event.Begin ~name:"pipeline" ~id:0 0.0;
      ev Event.Begin ~name:"pass" ~id:1 ~parent:0 0.001;
      ev Event.End ~id:1 0.004;
      ev Event.Begin ~name:"pass" ~id:2 ~parent:0 0.005;
      ev Event.End ~id:2 0.006;
      ev Event.End ~id:0 0.010;
    ]
  in
  (match Profile.aggregate events with
  | [ a; b ] ->
      (* pipeline: total 10ms, self 10 - 4 = 6ms; pass: 2 spans, total
         and self both 4ms *)
      check_b "pipeline row" true
        (a.Profile.a_name = "pipeline" && a.Profile.a_count = 1
        && close a.Profile.a_total 0.010
        && close a.Profile.a_self 0.006);
      check_b "pass row" true
        (b.Profile.a_name = "pass" && b.Profile.a_count = 2
        && close b.Profile.a_total 0.004
        && close b.Profile.a_self 0.004)
  | rows ->
      Alcotest.failf "expected 2 aggregate rows, got %d" (List.length rows));
  Alcotest.(check (list (pair string int)))
    "collapsed stacks, self-weighted, lexicographic"
    [ ("pipeline", 6000); ("pipeline;pass", 4000) ]
    (Profile.collapsed events)

let test_profile_tiebreak_and_clamp () =
  (* equal self times order by name; an unclosed span is clamped to the
     stream's last timestamp *)
  let events =
    [
      ev Event.Begin ~name:"b" ~id:0 0.0;
      ev Event.End ~id:0 0.002;
      ev Event.Begin ~name:"a" ~id:1 0.010;
      ev Event.End ~id:1 0.012;
      ev Event.Begin ~name:"orphan" ~id:2 0.014;
      ev Event.Instant ~name:"tick" 0.017;
    ]
  in
  match Profile.aggregate events with
  | [ o; a; b ] ->
      check_b "unclosed span clamps to last ts" true
        (o.Profile.a_name = "orphan" && close o.Profile.a_self 0.003);
      check_b "equal self ties break by name" true
        (a.Profile.a_name = "a" && b.Profile.a_name = "b")
  | rows ->
      Alcotest.failf "expected 3 aggregate rows, got %d" (List.length rows)

(* --- bench diff ---------------------------------------------------- *)

let bench_doc ?(wall = 1.0) ?(claim = true) ?(quick = false)
    ?(degraded = true) ?(phase_wall = 0.1) ?(claims = [ "claim ok" ]) rate =
  Json.Obj
    [
      ("schema", Json.String "bench/v3");
      ("mode", Json.String "test");
      ("quick", Json.Bool quick);
      ( "experiments",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "e1");
                ("wall_s", Json.Float wall);
                ("units_per_sec", Json.Float rate);
              ];
          ] );
      ("claims", Json.Obj (List.map (fun c -> (c, Json.Bool claim)) claims));
      ( "detail",
        Json.Obj
          [
            ("reps", Json.Int (if quick then 5 else 20));
            ("degraded", Json.Bool degraded);
            ( "phases",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.String "explorer.behaviours");
                      ("count", Json.Int 4);
                      ("wall_s", Json.Float phase_wall);
                      ("self_s", Json.Float phase_wall);
                    ];
                ] );
          ] );
    ]

let run_diff ?min_wall old_json new_json =
  match Bench_diff.diff ?min_wall ~old_json ~new_json () with
  | Ok t -> t
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_bench_diff_verdicts () =
  let old_json = bench_doc 1000. in
  check_b "identical docs do not regress" false
    (Bench_diff.regressed (run_diff old_json old_json));
  let t = run_diff old_json (bench_doc 400.) in
  check_b "rate drop beyond threshold regresses" true
    (Bench_diff.regressed t
    && List.exists
         (fun r ->
           match r.Bench_diff.r_status with
           | Bench_diff.Regressed d -> close d 0.6
           | _ -> false)
         t.Bench_diff.rows);
  check_b "rate gain does not regress" false
    (Bench_diff.regressed (run_diff old_json (bench_doc 2000.)));
  check_b "sub-floor walls are noise, not regressions" false
    (Bench_diff.regressed
       (run_diff (bench_doc ~wall:0.001 1000.) (bench_doc ~wall:0.001 400.)));
  check_b "a broken boolean claim regresses regardless of rates" true
    (Bench_diff.regressed (run_diff old_json (bench_doc ~claim:false 1000.)));
  check_b "documents with no comparable point error out" true
    (match
       Bench_diff.diff
         ~old_json:(Json.Obj [ ("x", Json.String "y") ])
         ~new_json:(Json.Obj [ ("x", Json.String "y") ])
         ()
     with
    | Error _ -> true
    | Ok _ -> false)

(* Configuration is not a result: a quick run against a full one, or a
   run on a multi-core host against a single-core one, flips [quick]
   and [detail.degraded] and must not regress. *)
let test_bench_diff_configuration () =
  check_b "quick and degraded flips do not regress" false
    (Bench_diff.regressed
       (run_diff
          (bench_doc ~quick:true 1000.)
          (bench_doc ~quick:false ~degraded:false 1000.)))

(* Detail walls are sized by reps (a quick run does less work), so a
   phase wall is never compared, however far it moves. *)
let test_bench_diff_detail_walls () =
  check_b "a tripled detail phase wall does not regress" false
    (Bench_diff.regressed
       (run_diff (bench_doc 1000.) (bench_doc ~phase_wall:0.3 1000.)))

(* A claim the new file no longer makes is as broken as one that reads
   false. *)
let test_bench_diff_missing_claim () =
  check_b "a claim missing from the new file regresses" true
    (Bench_diff.regressed
       (run_diff
          (bench_doc ~claims:[ "claim ok"; "por identical" ] 1000.)
          (bench_doc ~claims:[ "claim ok" ] 1000.)))

(* --- heartbeat snapshots under live exploration -------------------- *)

let snapshot_progress () =
  let s = Explorer.live_progress () in
  [
    ("states", Json.Int s.Explorer.states);
    ("edges", Json.Int s.Explorer.edges);
  ]

(* Run a traced exploration with a 1ms heartbeat, then a chain
   validation whose batch jobs share the exploration's stats record;
   return the parsed snapshot lines, the end-of-run registry view and
   the shared record. *)
let heartbeat_run jobs p =
  let path = Filename.temp_file "hb" ".jsonl" in
  let shared = Explorer.create_stats () in
  Metrics.reset_global ();
  Metrics.set_enabled true;
  let finish () =
    Snapshot.stop ();
    Metrics.set_enabled false
  in
  (match
     Snapshot.start ~path ~interval_ms:1 snapshot_progress;
     ignore (Interp.behaviours ~fuel:24 ~stats:shared ~jobs p);
     ignore
       (Safeopt_opt.Validate.validate_chain ~fuel:24 ~stats:shared ~jobs
          [ p; p; p ])
   with
  | () -> finish ()
  | exception e ->
      finish ();
      Sys.remove path;
      raise e);
  let lines = Snapshot.read_file path in
  let final = Explorer.of_registry Metrics.global in
  Metrics.reset_global ();
  Sys.remove path;
  (lines, final, shared)

let snapshot_invariants jobs =
  to_alcotest
    (QCheck2.Test.make
       ~name:
         (Printf.sprintf "heartbeats monotone, final = registry at jobs %d"
            jobs)
       ~count:10 ~print:Generators.print_program Generators.program (fun p ->
         match heartbeat_run jobs p with
         | Error e, _, _ ->
             QCheck2.Test.fail_reportf "unreadable heartbeat: %s" e
         | Ok lines, final, shared ->
             let states l =
               Option.value ~default:(-1) (Snapshot.progress_int l "states")
             in
             let edges l =
               Option.value ~default:(-1) (Snapshot.progress_int l "edges")
             in
             let rec monotone = function
               | a :: (b :: _ as rest) ->
                   states a <= states b && edges a <= edges b
                   && a.Snapshot.l_seq < b.Snapshot.l_seq
                   && monotone rest
               | _ -> true
             in
             let last = List.nth lines (List.length lines - 1) in
             let metric name =
               Option.bind
                 (Option.bind
                    (Json.member "counters" last.Snapshot.l_metrics)
                    (Json.member name))
                 Json.to_int
             in
             lines <> [] && monotone lines
             (* the final line (written by [stop] after the run
                published everything) agrees with the registry, both in
                the progress view and in the frozen metrics object *)
             && states last = final.Explorer.states
             && edges last = final.Explorer.edges
             && metric "explorer.states" = Some final.Explorer.states
             && metric "explorer.edges" = Some final.Explorer.edges
             (* every exploration reached the caller's record exactly
                once, also from batch jobs running in parallel *)
             && shared.Explorer.states = final.Explorer.states
             && shared.Explorer.edges = final.Explorer.edges))

(* A batch's jobs explore at pool size 1, so only the batch knows it
   ran on several domains: both the caller's record and the registry
   the heartbeat reads must say so. *)
let test_batch_domains () =
  let stats = Explorer.create_stats () in
  Metrics.reset_global ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      ignore
        (Safeopt_litmus.Litmus.check_all ~jobs:2 ~stats
           Safeopt_litmus.Corpus.[ sb; mp ]));
  let registry = Explorer.of_registry Metrics.global in
  Metrics.reset_global ();
  check_i "record domains" 2 stats.Explorer.domains;
  check_i "registry domains" 2 registry.Explorer.domains

(* --- publish / of_registry round-trip ------------------------------ *)

let test_stats_registry_roundtrip () =
  (* Explorer stats published into a registry and read back are the
     same stats: [live_progress] and the heartbeat read the finished
     explorations back from the registry this way *)
  let s = Explorer.create_stats () in
  s.Explorer.states <- 1234;
  s.Explorer.edges <- 5678;
  s.Explorer.memo_hits <- 42;
  s.Explorer.por_cuts <- 7;
  s.Explorer.peak_frontier <- 99;
  s.Explorer.wall <- 0.5;
  s.Explorer.domains <- 2;
  let r = Metrics.create ~stripes:1 () in
  Explorer.publish ~into:r s;
  let s' = Explorer.of_registry r in
  check_b "round-trips through a registry" true
    (s'.Explorer.states = s.Explorer.states
    && s'.Explorer.edges = s.Explorer.edges
    && s'.Explorer.memo_hits = s.Explorer.memo_hits
    && s'.Explorer.por_cuts = s.Explorer.por_cuts
    && s'.Explorer.peak_frontier = s.Explorer.peak_frontier
    && s'.Explorer.domains = s.Explorer.domains
    && abs_float (s'.Explorer.wall -. s.Explorer.wall) < 1e-9)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket round-trip" `Quick test_bucket_roundtrip;
          Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
          Alcotest.test_case "sharded merge equality" `Quick
            test_merge_equality;
          Alcotest.test_case "parallel counter exactness" `Quick
            test_counter_exact_parallel;
          Alcotest.test_case "stats registry round-trip" `Quick
            test_stats_registry_roundtrip;
        ] );
      ("events", [ event_roundtrip ]);
      ( "spans",
        [ span_log_wellformed 1; span_log_wellformed 2 ] );
      ( "report",
        [ Alcotest.test_case "aggregation" `Quick test_report_aggregate ] );
      ( "profile",
        [
          Alcotest.test_case "self vs total" `Quick test_profile_self_total;
          Alcotest.test_case "tie-break and clamp" `Quick
            test_profile_tiebreak_and_clamp;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "verdicts" `Quick test_bench_diff_verdicts;
          Alcotest.test_case "configuration not compared" `Quick
            test_bench_diff_configuration;
          Alcotest.test_case "detail walls not compared" `Quick
            test_bench_diff_detail_walls;
          Alcotest.test_case "missing claim regresses" `Quick
            test_bench_diff_missing_claim;
        ] );
      ( "heartbeat",
        [
          snapshot_invariants 1;
          snapshot_invariants 4;
          Alcotest.test_case "batch domains published" `Quick
            test_batch_domains;
        ] );
    ]
