(* Domain parallelism for batches of independent explorations: a
   reusable fixed pool of domains and the one [?jobs ?pool] dispatcher;
   and the single-domain hash-consing tables every exploration interns
   into.  Stdlib multicore only (Domain / Atomic / Mutex /
   Condition). *)

let resolve_jobs n =
  if n < 0 then invalid_arg "Par.resolve_jobs: negative job count"
  else if n = 0 then Domain.recommended_domain_count ()
  else n

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type t = {
    size : int;
    mu : Mutex.t;
    start : Condition.t;
    finished : Condition.t;
    mutable job : (int -> unit) option;
    mutable epoch : int;  (** bumped per job; workers wait for a change *)
    mutable running : int;  (** workers still inside the current job *)
    mutable closed : bool;
    error : exn option Atomic.t;  (** first failure of the current job *)
    mutable domains : unit Domain.t list;
  }

  let size t = t.size

  let record_error t exn =
    ignore (Atomic.compare_and_set t.error None (Some exn))

  let worker t w =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock t.mu;
      while (not t.closed) && t.epoch = !seen do
        Condition.wait t.start t.mu
      done;
      if t.closed then Mutex.unlock t.mu
      else begin
        seen := t.epoch;
        let job = Option.get t.job in
        Mutex.unlock t.mu;
        (try job w with exn -> record_error t exn);
        Mutex.lock t.mu;
        t.running <- t.running - 1;
        if t.running = 0 then Condition.broadcast t.finished;
        Mutex.unlock t.mu;
        loop ()
      end
    in
    loop ()

  let create n =
    let size = max 1 n in
    let t =
      {
        size;
        mu = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        job = None;
        epoch = 0;
        running = 0;
        closed = false;
        error = Atomic.make None;
        domains = [];
      }
    in
    t.domains <-
      List.init (size - 1) (fun i ->
          Domain.spawn (fun () -> worker t (i + 1)));
    t

  (* When a trace sink is live, each worker's participation in a job
     becomes a "pool.worker" span on its own domain lane.  Disabled, the
     job function is returned untouched: no wrapper, no allocation. *)
  let traced f =
    if not (Safeopt_obs.Tracer.enabled ()) then f
    else
      fun w ->
        let sp =
          Safeopt_obs.Tracer.span
            ~attrs:[ ("worker", Safeopt_obs.Event.Int w) ]
            "pool.worker"
        in
        Fun.protect
          ~finally:(fun () -> Safeopt_obs.Tracer.close_span sp)
          (fun () -> f w)

  let run t f =
    if t.size = 1 then f 0
    else begin
      let f = traced f in
      Mutex.lock t.mu;
      t.job <- Some f;
      t.running <- t.size - 1;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.start;
      Mutex.unlock t.mu;
      (try f 0 with exn -> record_error t exn);
      Mutex.lock t.mu;
      while t.running > 0 do
        Condition.wait t.finished t.mu
      done;
      t.job <- None;
      Mutex.unlock t.mu;
      match Atomic.exchange t.error None with
      | Some exn -> raise exn
      | None -> ()
    end

  let shutdown t =
    Mutex.lock t.mu;
    t.closed <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.mu;
    List.iter Domain.join t.domains;
    t.domains <- []

  let with_pool jobs f =
    let t = create (resolve_jobs jobs) in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  let map_list t f xs =
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    run t (fun _ ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f i arr.(i));
            loop ()
          end
        in
        loop ());
    Array.to_list (Array.map Option.get out)
end

(* One dispatcher shared by every [?jobs ?pool] entry point in the
   repository: an explicit pool wins over a job count; a resolved
   parallelism of 1 takes the untouched sequential path. *)
let dispatch ?jobs ?pool ~seq ~par () =
  match pool with
  | Some p -> if Pool.size p > 1 then par p else seq ()
  | None -> (
      match jobs with
      | None -> seq ()
      | Some j ->
          let j = resolve_jobs j in
          if j <= 1 then seq () else Pool.with_pool j par)

(* ------------------------------------------------------------------ *)
(* Hash-consing tables                                                 *)
(* ------------------------------------------------------------------ *)

module Intern = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let id t s =
    match Hashtbl.find_opt t s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t in
        Hashtbl.add t s id;
        id
end

(* The hot visited set of the exploration engine.  Digests (small int
   arrays) are copied once into a bump-allocated unboxed int arena and
   addressed through an open-addressing (linear probing) slot table —
   no per-state boxed key, no hash-bucket cons cells, no rehash of
   stored keys on resize (slots store entry indices; the digest words
   never move).  An entry's index is its id, so ids are dense in
   [0, length) in insertion order.  Each entry owns one ['a] meta slot
   for engine bookkeeping (edge lists). *)

module Ptbl = struct
  type 'a t = {
    mutable slots : int array;  (** entry id + 1; 0 = empty *)
    mutable nslots : int;  (** power of two *)
    mutable n : int;  (** entries *)
    mutable offs : int array;  (** id -> arena offset of [len] *)
    mutable metas : 'a array;  (** id -> meta slot *)
    mutable arena : int array;  (** [len; words...] packed digests *)
    mutable used : int;
  }

  let create ~dummy () =
    {
      slots = Array.make 64 0;
      nslots = 64;
      n = 0;
      offs = Array.make 32 0;
      metas = Array.make 32 dummy;
      arena = Array.make 256 0;
      used = 0;
    }

  let length t = t.n

  (* A product's low bits depend only on its factors' low bits, so the
     FNV hash's lowest six bits see only the digest words' lowest six:
     probe from the bits above them. *)
  let home h = h lsr 6

  let digest_equal t off (d : int array) =
    let len = Array.length d in
    t.arena.(off) = len
    &&
    let rec go i =
      i >= len || (t.arena.(off + 1 + i) = Array.unsafe_get d i && go (i + 1))
    in
    go 0

  (* Find the slot holding [d], or the empty slot where it belongs. *)
  let probe t h d =
    let m = t.nslots - 1 in
    let rec go i =
      let s = t.slots.(i) in
      if s = 0 then i
      else if digest_equal t t.offs.(s - 1) d then i
      else go ((i + 1) land m)
    in
    go (home h land m)

  let rehash t =
    let old = t.slots in
    t.nslots <- t.nslots * 2;
    t.slots <- Array.make t.nslots 0;
    let m = t.nslots - 1 in
    Array.iter
      (fun s ->
        if s <> 0 then begin
          let off = t.offs.(s - 1) in
          (* re-derive the hash from the packed digest *)
          let len = t.arena.(off) in
          let h = ref 0x811c9dc5 in
          for i = off + 1 to off + len do
            h := (!h lxor t.arena.(i)) * 0x01000193 land max_int
          done;
          let rec place i =
            if t.slots.(i) = 0 then t.slots.(i) <- s
            else place ((i + 1) land m)
          in
          place (home !h land m)
        end)
      old

  let grow_entries t dummy =
    let cap = Array.length t.offs in
    if t.n >= cap then begin
      let cap' = 2 * cap in
      let copy a fill =
        let b = Array.make cap' fill in
        Array.blit a 0 b 0 cap;
        b
      in
      t.offs <- copy t.offs 0;
      t.metas <- copy t.metas dummy
    end

  let append_arena t (d : int array) =
    let len = Array.length d in
    let need = t.used + len + 1 in
    if need > Array.length t.arena then begin
      let cap' = max need (2 * Array.length t.arena) in
      let fresh = Array.make cap' 0 in
      Array.blit t.arena 0 fresh 0 t.used;
      t.arena <- fresh
    end;
    let off = t.used in
    t.arena.(off) <- len;
    Array.blit d 0 t.arena (off + 1) len;
    t.used <- need;
    off

  (* [f None] creates the meta for a fresh digest, [f (Some m)] reads
     or replaces the existing one. *)
  let update t (d : int array) f =
    let i = probe t (Ikey.hash d) d in
    let s = t.slots.(i) in
    if s <> 0 then begin
      let id = s - 1 in
      let meta, r = f (Some t.metas.(id)) in
      t.metas.(id) <- meta;
      (id, r)
    end
    else begin
      let meta, r = f None in
      grow_entries t meta;
      let id = t.n in
      t.n <- id + 1;
      t.offs.(id) <- append_arena t d;
      t.metas.(id) <- meta;
      t.slots.(i) <- id + 1;
      if 4 * t.n > 3 * t.nslots then rehash t;
      (id, r)
    end

  (* Unit-specialised entry point for callers that only want
     hash-consed ids with no per-entry bookkeeping. *)
  let intern (t : unit t) d =
    fst (update t d (function Some () -> ((), false) | None -> ((), true)))

  let iter t f =
    for id = 0 to t.n - 1 do
      f id t.metas.(id)
    done
end
