(* A forked worker that serves inputs one at a time under a deadline.

   The worker is forked after set-up, so it holds every input already and
   a request is just an input's index.  It answers over a pipe, one line
   per message: [M <layer>] when it enters a layer, [R <payload>] when it
   finishes a phase, and [D] when the input is done.  Every [R] restarts
   the deadline, so a multi-phase input gets the deadline per phase.  A
   worker silent for longer than the deadline is killed, and the next
   request forks a fresh one; the layers the killed worker entered since
   its last [R] come back with the parent's receipt times, so the caller
   can charge the lost time to them.

   One worker serves many inputs, as one process serves them in the other
   workloads: forking per input would put the child's first writes to the
   pages it shares with the parent (copy-on-write faults, up to a
   millisecond for an allocating input) inside the verdict times.  A new
   worker writes those pages once before it serves. *)

module Clock = Safeopt_obs.Clock

type outcome = {
  results : string list;  (** [R] payloads, in order *)
  markers : (string * float) list;
      (** layers entered after the last [R], with receipt times *)
  killed_at : float option;  (** when the worker was killed, if it was *)
}

type proc = { pid : int; requests : out_channel; answers : Unix.file_descr }

type t = {
  serve : int -> marker:(string -> unit) -> result:(string -> unit) -> unit;
  mutable proc : proc option;
  pending : Buffer.t;  (** bytes read past the last complete line *)
}

let create serve =
  (* a request to a worker that just died must fail, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { serve; proc = None; pending = Buffer.create 256 }

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Write every page shared with the parent: a full major collection
   touches the major heap, and a minor heap's worth of small blocks the
   minor heap. *)
let touch_shared_pages () =
  Gc.full_major ();
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size / 2 do
    ignore (Sys.opaque_identity (ref 0))
  done

let serve_requests t req res =
  touch_shared_pages ();
  let ic = Unix.in_channel_of_descr req
  and oc = Unix.out_channel_of_descr res in
  let line tag s =
    output_string oc tag;
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  try
    while true do
      let k = int_of_string (input_line ic) in
      (try t.serve k ~marker:(line "M ") ~result:(line "R ") with _ -> ());
      line "D" ""
    done
  with End_of_file -> ()

let spawn t =
  flush_all ();
  let req_r, req_w = Unix.pipe ~cloexec:true ()
  and res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      serve_requests t req_r res_w;
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      Buffer.clear t.pending;
      let p =
        { pid; requests = Unix.out_channel_of_descr req_w; answers = res_r }
      in
      t.proc <- Some p;
      p

let reap t ~kill =
  Option.iter
    (fun p ->
      if kill then Unix.kill p.pid Sys.sigkill;
      close_out_noerr p.requests;
      waitpid p.pid;
      Unix.close p.answers)
    t.proc;
  t.proc <- None

(* Stop the worker, if any; call when done with it. *)
let stop t = reap t ~kill:false

let run t ~deadline k =
  let rec request ~retry =
    let p = match t.proc with Some p -> p | None -> spawn t in
    match
      output_string p.requests (string_of_int k ^ "\n");
      flush p.requests
    with
    | () -> p
    | exception Sys_error _ when retry ->
        reap t ~kill:true;
        request ~retry:false
  in
  let p = request ~retry:true in
  let results = ref [] and markers = ref [] and finished = ref false in
  let last = ref (Clock.now ()) and chunk = Bytes.create 65536 in
  let handle line =
    let now = Clock.now () in
    match line.[0] with
    | 'R' ->
        results := String.sub line 2 (String.length line - 2) :: !results;
        markers := [];
        last := now
    | 'M' ->
        markers := (String.sub line 2 (String.length line - 2), now) :: !markers
    | _ -> finished := true
  in
  let rec split s start =
    match String.index_from_opt s start '\n' with
    | Some j ->
        handle (String.sub s start (j - start));
        split s (j + 1)
    | None ->
        Buffer.clear t.pending;
        Buffer.add_substring t.pending s start (String.length s - start)
  in
  let rec loop () =
    if !finished then None
    else
      let left = deadline -. Clock.elapsed !last in
      if left <= 0. then Some (Clock.now ())
      else
        match Unix.select [ p.answers ] [] [] left with
        | [], _, _ -> loop ()
        | _ ->
            let n = Unix.read p.answers chunk 0 (Bytes.length chunk) in
            if n = 0 then begin
              (* the worker died: treat it as killed now *)
              finished := true;
              Some (Clock.now ())
            end
            else begin
              Buffer.add_subbytes t.pending chunk 0 n;
              split (Buffer.contents t.pending) 0;
              loop ()
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  let killed_at = loop () in
  if Option.is_some killed_at then reap t ~kill:true;
  { results = List.rev !results; markers = List.rev !markers; killed_at }
