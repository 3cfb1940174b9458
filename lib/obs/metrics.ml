(* Named counters and gauges, one cell per metric.  A counter is one
   atomic word, exact under any interleaving: pool workers count into
   it.  A gauge is one record updated under the registry's mutex. *)

type gauge = {
  lock : Mutex.t;  (** the registry's mutex *)
  mutable last : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
  mutable count : int;
}

type counter = int Atomic.t
type metric = Counter of counter | Gauge of gauge

type t = {
  mu : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (** registration order, reversed *)
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32; order = [] }

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

let counter t name =
  register t name
    (fun () -> Counter (Atomic.make 0))
    (fun name m ->
      match m with
      | Counter c -> c
      | Gauge _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let add c n = ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value = Atomic.get

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let gauge t name =
  register t name
    (fun () ->
      Gauge
        {
          lock = t.mu;
          last = 0.;
          min = infinity;
          max = neg_infinity;
          sum = 0.;
          count = 0;
        })
    (fun name m ->
      match m with
      | Gauge g -> g
      | Counter _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let record g v =
  Mutex.lock g.lock;
  g.last <- v;
  if v < g.min then g.min <- v;
  if v > g.max then g.max <- v;
  g.sum <- g.sum +. v;
  g.count <- g.count + 1;
  Mutex.unlock g.lock

type gauge_summary = {
  g_last : float;
  g_min : float;
  g_max : float;
  g_mean : float;
  g_count : int;
}

let gauge_summary g =
  Mutex.lock g.lock;
  let s =
    if g.count = 0 then None
    else
      Some
        {
          g_last = g.last;
          g_min = g.min;
          g_max = g.max;
          g_mean = g.sum /. float_of_int g.count;
          g_count = g.count;
        }
  in
  Mutex.unlock g.lock;
  s

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let names t = List.rev t.order

let find t name =
  Mutex.lock t.mu;
  let m = Hashtbl.find_opt t.tbl name in
  Mutex.unlock t.mu;
  m

let find_counter t name =
  match find t name with Some (Counter c) -> Some (counter_value c) | _ -> None

let find_gauge t name =
  match find t name with Some (Gauge g) -> gauge_summary g | _ -> None

let to_json t =
  let counters = ref [] and gauges = ref [] in
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
                :: !gauges))
    (names t);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
    ]

(* Summary tree grouped by the first dotted segment:
     metrics:
       explorer:
         states   123 *)
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
                    indent short s.g_last s.g_min s.g_max s.g_mean s.g_count))
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
