type span = int

let none : span = -1

type format = Jsonl | Chrome_trace

type sink =
  | File of { path : string; format : format }
  | Memory

(* The disabled fast path must be a single flag read: [on] is the only
   state a disabled call site touches. *)
let on = ref false
let enabled () = !on

let sink_ref : sink option ref = ref None
let t0 = ref 0.
let next_id = Atomic.make 0

(* Emission-order buffer.  The mutex is uncontended except when several
   domains emit simultaneously; events in hot layers are per-phase, not
   per-state, so this is never on the exploration fast path. *)
let mu = Mutex.create ()
let buf : Event.t list ref = ref []
let count = ref 0

let emit kind name id parent attrs =
  let e =
    {
      Event.kind;
      name;
      id;
      parent;
      domain = (Domain.self () :> int);
      ts = Clock.elapsed !t0;
      attrs;
    }
  in
  Mutex.lock mu;
  buf := e :: !buf;
  incr count;
  Mutex.unlock mu

let start sink =
  Mutex.lock mu;
  buf := [];
  count := 0;
  Mutex.unlock mu;
  Atomic.set next_id 0;
  t0 := Clock.now ();
  sink_ref := Some sink;
  on := true

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let stop () =
  match !sink_ref with
  | None ->
      on := false;
      []
  | Some sink ->
      on := false;
      sink_ref := None;
      Mutex.lock mu;
      let events = List.rev !buf in
      buf := [];
      count := 0;
      Mutex.unlock mu;
      (match sink with
      | Memory -> ()
      | File { path; format = Jsonl } ->
          let b = Buffer.create 4096 in
          List.iter
            (fun e ->
              Buffer.add_string b (Json.to_string (Event.to_json e));
              Buffer.add_char b '\n')
            events;
          write_file path (Buffer.contents b)
      | File { path; format = Chrome_trace } ->
          write_file path (Chrome.to_string events));
      events

let span ?(parent = none) ?(attrs = []) name =
  if not !on then none
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    emit Event.Begin name id parent attrs;
    id
  end

let close_span ?(attrs = []) sp =
  if !on && sp >= 0 then emit Event.End "" sp none attrs

let counter name v =
  if !on then emit Event.Counter name none none [ ("v", Event.Float v) ]

let with_span ?(attrs = fun () -> []) ~result name f =
  if not !on then f ()
  else begin
    let sp = span ~attrs:(attrs ()) name in
    match f () with
    | r ->
        close_span ~attrs:(result r) sp;
        r
    | exception e ->
        close_span ~attrs:[ ("error", Event.Str (Printexc.to_string e)) ] sp;
        raise e
  end
