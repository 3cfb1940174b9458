(* Named counters / gauges / log-scale histograms, striped by domain id
   so parallel recorders stay off each other's cache lines.  Counters
   are atomic (exact under any interleaving); gauge and histogram cells
   are plain mutable words — word-atomic, so never torn, but a stripe
   collision under simultaneous writes can lose an update.  Verdicts
   never come from gauges or histograms. *)

let default_stripes = 8

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Per-stripe gauge cell: all-float record, unboxed fields. *)
type gcell = {
  mutable last : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
  mutable count : float;
}

let nbuckets = 64

type metric =
  | Counter of int Atomic.t array  (** one atomic per stripe *)
  | Gauge of gcell array
  | Histogram of int array array  (** stripes x buckets *)

type t = {
  stripes : int;
  mu : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (** registration order, reversed *)
}

type counter = int Atomic.t array
type gauge = gcell array
type histogram = int array array

let create ?(stripes = default_stripes) () =
  {
    stripes = round_pow2 (max 1 stripes);
    mu = Mutex.create ();
    tbl = Hashtbl.create 32;
    order = [];
  }

let register t name mk extract =
  Mutex.lock t.mu;
  let m =
    match Hashtbl.find_opt t.tbl name with
    | Some m -> m
    | None ->
        let m = mk () in
        Hashtbl.add t.tbl name m;
        t.order <- name :: t.order;
        m
  in
  Mutex.unlock t.mu;
  extract name m

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter t name : counter =
  let cells = register t name
      (fun () -> Counter (Array.init t.stripes (fun _ -> Atomic.make 0)))
      (fun name m ->
        match m with
        | Counter c -> c
        | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))
  in
  cells

let add_at (c : counter) i n = ignore (Atomic.fetch_and_add c.(i) n)

let add (c : counter) n =
  add_at c ((Domain.self () :> int) land (Array.length c - 1)) n

let incr c = add c 1

let counter_value (c : counter) =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let gauge t name : gauge =
  register t name
    (fun () ->
      Gauge
        (Array.init t.stripes (fun _ ->
             { last = 0.; min = infinity; max = neg_infinity; sum = 0.; count = 0. })))
    (fun name m ->
      match m with
      | Gauge g -> g
      | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let record (g : gauge) v =
  let c = g.((Domain.self () :> int) land (Array.length g - 1)) in
  c.last <- v;
  if v < c.min then c.min <- v;
  if v > c.max then c.max <- v;
  c.sum <- c.sum +. v;
  c.count <- c.count +. 1.

type gauge_summary = {
  g_last : float;
  g_min : float;
  g_max : float;
  g_mean : float;
  g_count : int;
}

let gauge_summary (g : gauge) =
  let min', max', sum, count, last =
    Array.fold_left
      (fun (mn, mx, sum, n, last) c ->
        ( Float.min mn c.min,
          Float.max mx c.max,
          sum +. c.sum,
          n +. c.count,
          if c.count > 0. then c.last else last ))
      (infinity, neg_infinity, 0., 0., 0.)
      g
  in
  if count = 0. then None
  else
    Some
      {
        g_last = last;
        g_min = min';
        g_max = max';
        g_mean = sum /. count;
        g_count = int_of_float count;
      }

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Bucket 0: < 1ns.  Bucket i > 0: [2^(i-1), 2^i) ns. *)
let bucket_of (s : float) =
  let ns = s *. 1e9 in
  if not (ns >= 1.) then 0
  else
    let rec go i lim = if ns < lim || i = nbuckets - 1 then i else go (i + 1) (lim *. 2.) in
    go 1 2.

let bucket_bounds i =
  if i <= 0 then (0., 1e-9)
  else
    let lo = Float.of_int (1 lsl min i 62) /. 2. in
    (lo *. 1e-9, lo *. 2e-9)

let histogram t name : histogram =
  register t name
    (fun () -> Histogram (Array.init t.stripes (fun _ -> Array.make nbuckets 0)))
    (fun name m ->
      match m with
      | Histogram h -> h
      | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

let observe (h : histogram) v =
  let row = h.((Domain.self () :> int) land (Array.length h - 1)) in
  let b = bucket_of v in
  row.(b) <- row.(b) + 1

let fold_buckets (h : histogram) =
  let acc = Array.make nbuckets 0 in
  Array.iter (fun row -> Array.iteri (fun i n -> acc.(i) <- acc.(i) + n) row) h;
  acc

let histogram_count h = Array.fold_left ( + ) 0 (fold_buckets h)

let histogram_sum h =
  (* approximate: each sample counted at its bucket's geometric centre *)
  let acc = fold_buckets h in
  let sum = ref 0. in
  Array.iteri
    (fun i n ->
      if n > 0 then
        let lo, hi = bucket_bounds i in
        sum := !sum +. (float_of_int n *. ((lo +. hi) /. 2.)))
    acc;
  !sum

let histogram_buckets h =
  let acc = fold_buckets h in
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if acc.(i) > 0 then out := (i, acc.(i)) :: !out
  done;
  !out

let quantile h q =
  let acc = fold_buckets h in
  let total = Array.fold_left ( + ) 0 acc in
  if total = 0 then None
  else
    (* q is clamped into [0,1]: p=0 answers from the first occupied
       bucket, p=1 from the last.  target >= 1 means the scan can only
       stop on an occupied bucket (seen grows nowhere else), so the
       bound returned always covers at least one real sample — never
       the upper edge of an empty tail bucket. *)
    let q = if Float.is_nan q then 1. else Float.max 0. (Float.min 1. q) in
    let target = Float.max 1. (Float.of_int total *. q) in
    let last_occupied = ref 0 in
    let rec go i seen =
      if i >= nbuckets then Some (snd (bucket_bounds !last_occupied))
      else begin
        if acc.(i) > 0 then last_occupied := i;
        let seen = seen + acc.(i) in
        if Float.of_int seen >= target then Some (snd (bucket_bounds i))
        else go (i + 1) seen
      end
    in
    go 0 0

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let names t = List.rev t.order

let find t name =
  Mutex.lock t.mu;
  let m = Hashtbl.find_opt t.tbl name in
  Mutex.unlock t.mu;
  m

let find_counter t name =
  match find t name with
  | Some (Counter c) -> Some (counter_value c)
  | _ -> None

let find_gauge t name =
  match find t name with Some (Gauge g) -> gauge_summary g | _ -> None

let merge ~into src =
  List.iter
    (fun name ->
      match find src name with
      | None -> ()
      | Some (Counter c) -> add_at (counter into name) 0 (counter_value c)
      | Some (Gauge g) -> (
          match gauge_summary g with
          | None -> ignore (gauge into name)
          | Some s ->
              let cell = (gauge into name).(0) in
              cell.last <- s.g_last;
              if s.g_min < cell.min then cell.min <- s.g_min;
              if s.g_max > cell.max then cell.max <- s.g_max;
              cell.sum <- cell.sum +. (s.g_mean *. float_of_int s.g_count);
              cell.count <- cell.count +. float_of_int s.g_count)
      | Some (Histogram h) ->
          let dst = (histogram into name).(0) in
          let acc = fold_buckets h in
          Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) acc)
    (names src)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun name ->
      match find t name with
      | None -> ()
      | Some (Counter c) ->
          counters := (name, Json.Int (counter_value c)) :: !counters
      | Some (Gauge g) -> (
          match gauge_summary g with
          | None -> ()
          | Some s ->
              gauges :=
                ( name,
                  Json.Obj
                    [
                      ("last", Json.Float s.g_last);
                      ("min", Json.Float s.g_min);
                      ("max", Json.Float s.g_max);
                      ("mean", Json.Float s.g_mean);
                      ("count", Json.Int s.g_count);
                    ] )
                :: !gauges)
      | Some (Histogram h) ->
          let bs = histogram_buckets h in
          if bs <> [] then
            histograms :=
              ( name,
                Json.Obj
                  [
                    ("count", Json.Int (histogram_count h));
                    ("sum_s", Json.Float (histogram_sum h));
                    ( "buckets",
                      Json.List
                        (List.map
                           (fun (i, n) ->
                             let lo, _ = bucket_bounds i in
                             Json.List [ Json.Float lo; Json.Int n ])
                           bs) );
                  ] )
              :: !histograms)
    (names t);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

let pp_duration ppf s =
  if s < 1e-6 then Fmt.pf ppf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Fmt.pf ppf "%.1fus" (s *. 1e6)
  else if s < 1. then Fmt.pf ppf "%.2fms" (s *. 1e3)
  else Fmt.pf ppf "%.3fs" s

(* Summary tree grouped by the first dotted segment:
     metrics:
       explorer:
         states   123
       rpc:
         latency_s  count=4 p50<=2.0us max<=8.0us *)
let pp ppf t =
  let group name =
    match String.index_opt name '.' with
    | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
    | None -> ("", name)
  in
  let groups =
    List.fold_left
      (fun acc name ->
        let g, rest = group name in
        let cur = try List.assoc g acc with Not_found -> [] in
        (g, (rest, name) :: cur) :: List.remove_assoc g acc)
      [] (names t)
  in
  let groups = List.rev_map (fun (g, items) -> (g, List.rev items)) groups |> List.rev in
  Fmt.pf ppf "@[<v>metrics:";
  List.iter
    (fun (g, items) ->
      if g <> "" then Fmt.pf ppf "@   %s:" g;
      List.iter
        (fun (short, name) ->
          let indent = if g = "" then "  " else "    " in
          match find t name with
          | None -> ()
          | Some (Counter c) ->
              Fmt.pf ppf "@ %s%-24s %d" indent short (counter_value c)
          | Some (Gauge gc) -> (
              match gauge_summary gc with
              | None -> Fmt.pf ppf "@ %s%-24s (no samples)" indent short
              | Some s ->
                  Fmt.pf ppf "@ %s%-24s last=%g min=%g max=%g mean=%.2f n=%d"
                    indent short s.g_last s.g_min s.g_max s.g_mean s.g_count)
          | Some (Histogram h) ->
              let n = histogram_count h in
              if n = 0 then Fmt.pf ppf "@ %s%-24s (no samples)" indent short
              else
                let q v = Option.value ~default:0. (quantile h v) in
                Fmt.pf ppf "@ %s%-24s n=%d p50<=%a p99<=%a max<=%a" indent
                  short n pp_duration (q 0.5) pp_duration (q 0.99) pp_duration
                  (q 1.))
        items)
    groups;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* The process-global registry                                         *)
(* ------------------------------------------------------------------ *)

let global = create ()
let on = ref false
let enabled () = !on
let set_enabled b = on := b

let reset_global () =
  Mutex.lock global.mu;
  Hashtbl.reset global.tbl;
  global.order <- [];
  Mutex.unlock global.mu
