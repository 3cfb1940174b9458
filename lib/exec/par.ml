(* Domain-parallel work-pool primitives: a reusable fixed pool of
   domains, per-worker Chase–Lev work-stealing deques with in-flight
   termination detection, and a packed-arena open-addressing digest
   table.  Stdlib multicore only (Domain / Atomic / Mutex /
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
(* Chase–Lev work-stealing deque                                       *)
(* ------------------------------------------------------------------ *)

(* The classic Chase–Lev deque (SPAA 2005) on OCaml 5 SC atomics: the
   owner pushes and pops at [bottom] (LIFO, no synchronisation beyond
   the atomic stores), thieves take at [top] (FIFO) with one CAS per
   element.  Element cells are read {e before} the validating CAS; this
   is safe under the OCaml memory model because (a) the cell at index
   [i] was published by the owner's atomic store of [bottom > i], which
   the thief has observed, and (b) a cell is only ever overwritten (by
   a buffer lap or a grow) after [top] has advanced past it, which
   makes the thief's CAS on [top] fail.  Reads can therefore never
   observe a torn or future value, only a stale one that the CAS then
   rejects.

   Multi-item steals deliberately take one CAS per element instead of a
   single CAS over a range: with a range-CAS, a concurrent owner [pop]
   that observes a stale [top] may plain-take an element inside the
   thief's claimed range (the owner only CASes on the very last
   element), handing the same item to both sides.  Iterated single
   steals keep the owner protocol untouched and make each element's CAS
   its linearisation point. *)

module Deque = struct
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    tab : 'a array Atomic.t;  (** length is a power of two (or 0) *)
  }

  let create () =
    { top = Atomic.make 0; bottom = Atomic.make 0; tab = Atomic.make [||] }

  (* Racy size estimate: exact for the owner, a lower bound for
     thieves deciding whether a victim is worth visiting. *)
  let size t = max 0 (Atomic.get t.bottom - Atomic.get t.top)

  (* Owner only.  The new buffer is published through the [tab] atomic;
     the old buffer is never mutated again, so a thief holding it can
     still validate its pending steal. *)
  let grow t b witness =
    let old = Atomic.get t.tab in
    let n = Array.length old in
    let n' = max 16 (2 * n) in
    let fresh = Array.make n' witness in
    let top = Atomic.get t.top in
    for i = top to b - 1 do
      fresh.(i land (n' - 1)) <- old.(i land (n - 1))
    done;
    Atomic.set t.tab fresh

  let push t x =
    let b = Atomic.get t.bottom in
    let tab = Atomic.get t.tab in
    let n = Array.length tab in
    if n = 0 || b - Atomic.get t.top >= n then begin
      grow t b x;
      let tab = Atomic.get t.tab in
      tab.(b land (Array.length tab - 1)) <- x
    end
    else tab.(b land (n - 1)) <- x;
    Atomic.set t.bottom (b + 1)

  let pop t =
    let b = Atomic.get t.bottom - 1 in
    Atomic.set t.bottom b;
    let tp = Atomic.get t.top in
    if b < tp then begin
      (* already empty: restore the canonical empty shape *)
      Atomic.set t.bottom tp;
      None
    end
    else
      let tab = Atomic.get t.tab in
      let x = tab.(b land (Array.length tab - 1)) in
      if b > tp then Some x
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set t.top tp (tp + 1) in
        Atomic.set t.bottom (tp + 1);
        if won then Some x else None
      end

  let steal t =
    let tp = Atomic.get t.top in
    let b = Atomic.get t.bottom in
    if b - tp <= 0 then None
    else
      let tab = Atomic.get t.tab in
      let n = Array.length tab in
      if n = 0 then None
      else
        let x = tab.(tp land (n - 1)) in
        if Atomic.compare_and_set t.top tp (tp + 1) then Some x else None

  (* Steal-half policy: claim up to half of the victim's observed size
     (always at least one), one CAS per element; surplus elements land
     in the thief's own deque.  Returns the first stolen element and
     the number taken. *)
  let steal_half victim ~into =
    let target = max 1 ((size victim + 1) / 2) in
    match steal victim with
    | None -> None
    | Some first ->
        let taken = ref 1 in
        let continue = ref true in
        while !continue && !taken < target do
          match steal victim with
          | Some x ->
              push into x;
              incr taken
          | None -> continue := false
        done;
        Some (first, !taken)
end

(* ------------------------------------------------------------------ *)
(* Work-stealing scheduler                                             *)
(* ------------------------------------------------------------------ *)

module Ws = struct
  type 'a t = {
    deques : 'a Deque.t array;
    in_flight : int Atomic.t;  (** items discovered but not yet processed *)
    aborted : bool Atomic.t;
    mu : Mutex.t;
    wake : Condition.t;
    sleepers : int Atomic.t;  (** parked workers; written under [mu] *)
  }

  let create nw =
    {
      deques = Array.init (max 1 nw) (fun _ -> Deque.create ());
      in_flight = Atomic.make 0;
      aborted = Atomic.make false;
      mu = Mutex.create ();
      wake = Condition.create ();
      sleepers = Atomic.make 0;
    }

  let seed t x =
    Atomic.incr t.in_flight;
    Deque.push t.deques.(0) x

  (* The last finished item wakes every parked worker so they can
     observe completion; so does an abort. *)
  let finish_item t =
    if Atomic.fetch_and_add t.in_flight (-1) = 1 then begin
      Mutex.lock t.mu;
      Condition.broadcast t.wake;
      Mutex.unlock t.mu
    end

  let abort t =
    Atomic.set t.aborted true;
    Mutex.lock t.mu;
    Condition.broadcast t.wake;
    Mutex.unlock t.mu

  (* No lost wakeups: a parked worker registers in [sleepers] under
     [mu] and re-scans every deque before waiting; a producer pushes
     (an SC atomic store of [bottom]) and then reads [sleepers].
     Either the producer sees the sleeper and signals under [mu], or
     the sleeper's registration came later in the SC order and its
     scan sees the pushed item. *)
  let signal_sleepers t =
    if Atomic.get t.sleepers > 0 then begin
      Mutex.lock t.mu;
      Condition.broadcast t.wake;
      Mutex.unlock t.mu
    end

  let any_stealable t =
    Array.exists (fun d -> Deque.size d > 0) t.deques

  let spin_rounds = 32

  let run t w ?(on_wait = fun (_ : float) -> ())
      ?(on_steal = fun (_ : int) -> ()) ?(on_peak = fun (_ : int) -> ()) f =
    let nw = Array.length t.deques in
    let mine = t.deques.(w) in
    let push x =
      Atomic.incr t.in_flight;
      Deque.push mine x;
      on_peak (Deque.size mine);
      if nw > 1 then signal_sleepers t
    in
    let process x =
      match f x push with
      | () -> finish_item t
      | exception exn ->
          finish_item t;
          raise exn
    in
    (* one round-robin pass over the other workers' deques *)
    let try_steal () =
      let rec scan i =
        if i >= nw - 1 then None
        else
          let v = t.deques.((w + 1 + i) mod nw) in
          match Deque.steal_half v ~into:mine with
          | Some (x, taken) ->
              on_steal taken;
              Some x
          | None -> scan (i + 1)
      in
      scan 0
    in
    let park () =
      Mutex.lock t.mu;
      Atomic.incr t.sleepers;
      if
        Atomic.get t.aborted
        || Atomic.get t.in_flight = 0
        || any_stealable t
      then begin
        Atomic.decr t.sleepers;
        Mutex.unlock t.mu
      end
      else begin
        let t0 = Safeopt_obs.Clock.now () in
        Condition.wait t.wake t.mu;
        let dt = Safeopt_obs.Clock.elapsed t0 in
        Atomic.decr t.sleepers;
        Mutex.unlock t.mu;
        (* Genuine starvation only: a wakeup for termination (or an
           abort) is bookkeeping, not contention, and is not counted. *)
        if Atomic.get t.in_flight > 0 && not (Atomic.get t.aborted) then
          on_wait dt
      end
    in
    let rec loop () =
      if Atomic.get t.aborted then ()
      else
        match Deque.pop mine with
        | Some x ->
            process x;
            loop ()
        | None -> acquire 0
    and acquire spins =
      if Atomic.get t.aborted then ()
      else
        match try_steal () with
        | Some x ->
            process x;
            loop ()
        | None ->
            if Atomic.get t.in_flight = 0 then ()
            else if spins < spin_rounds then begin
              Domain.cpu_relax ();
              acquire (spins + 1)
            end
            else begin
              park ();
              loop ()
            end
    in
    try loop ()
    with exn ->
      abort t;
      raise exn
end

(* ------------------------------------------------------------------ *)
(* Sharded hash-consing tables                                         *)
(* ------------------------------------------------------------------ *)

let stripes = 64 (* power of two; stripe = hash land (stripes - 1) *)

module Intern = struct
  type t = {
    counter : int Atomic.t;
    locks : Mutex.t array;  (** empty: the single-stripe, lock-free variant *)
    tbls : (string, int) Hashtbl.t array;
  }

  let create () =
    {
      counter = Atomic.make 0;
      locks = Array.init stripes (fun _ -> Mutex.create ());
      tbls = Array.init stripes (fun _ -> Hashtbl.create 64);
    }

  let create_local () =
    { counter = Atomic.make 0; locks = [||]; tbls = [| Hashtbl.create 64 |] }

  let find_or_add t i s =
    match Hashtbl.find_opt t.tbls.(i) s with
    | Some id -> id
    | None ->
        let id = Atomic.fetch_and_add t.counter 1 in
        Hashtbl.add t.tbls.(i) s id;
        id

  let id t s =
    if Array.length t.locks = 0 then find_or_add t 0 s
    else begin
      let i = Hashtbl.hash s land (stripes - 1) in
      Mutex.lock t.locks.(i);
      let r = find_or_add t i s in
      Mutex.unlock t.locks.(i);
      r
    end
end

(* ------------------------------------------------------------------ *)
(* Packed-state arena with open-addressing digest table               *)
(* ------------------------------------------------------------------ *)

(* The hot visited-set of the exploration engine.  Digests (small int
   arrays) are copied once into a bump-allocated unboxed int arena and
   addressed through an open-addressing (linear probing) slot table —
   no per-state boxed key, no hash-bucket cons cells, no rehash of
   stored keys on resize (slots store arena offsets; the digest words
   never move within a stripe's arena).  Each entry owns one ['a] meta
   slot for engine bookkeeping (edge lists), created under the stripe
   lock.  Global ids are drawn from one atomic counter, so they are
   dense in [0, length) and usable as array indices; their numeric
   order varies between runs and they are only ever compared for
   equality. *)

module Ptbl = struct
  type 'a stripe = {
    mu : Mutex.t;
    mutable slots : int array;  (** local index + 1; 0 = empty *)
    mutable nslots : int;  (** power of two *)
    mutable n : int;  (** entries in this stripe *)
    mutable offs : int array;  (** local index -> arena offset of [len] *)
    mutable gids : int array;  (** local index -> global id *)
    mutable metas : 'a array;  (** local index -> meta slot *)
    mutable arena : int array;  (** [len; words...] packed digests *)
    mutable used : int;
  }

  type 'a t = {
    locked : bool;
    mask : int;  (** stripe count - 1 *)
    counter : int Atomic.t;
    tab : 'a stripe array;
  }

  let make_stripe dummy =
    {
      mu = Mutex.create ();
      slots = Array.make 64 0;
      nslots = 64;
      n = 0;
      offs = Array.make 32 0;
      gids = Array.make 32 0;
      metas = Array.make 32 dummy;
      arena = Array.make 256 0;
      used = 0;
    }

  let create ?(stripes = 64) ~dummy () =
    if stripes land (stripes - 1) <> 0 || stripes <= 0 then
      invalid_arg "Par.Ptbl.create: stripe count must be a power of two";
    {
      locked = stripes > 1;
      mask = stripes - 1;
      counter = Atomic.make 0;
      tab = Array.init stripes (fun _ -> make_stripe dummy);
    }

  (* Single-stripe, lock-free variant for a lone worker: same
     arena layout, no mutex on the hot path. *)
  let create_local ~dummy () =
    {
      locked = false;
      mask = 0;
      counter = Atomic.make 0;
      tab = [| make_stripe dummy |];
    }

  let length t = Atomic.get t.counter

  let words t =
    Array.fold_left (fun acc s -> acc + s.used) 0 t.tab

  let digest_equal st off (d : int array) =
    let len = Array.length d in
    st.arena.(off) = len
    &&
    let rec go i =
      i >= len || (st.arena.(off + 1 + i) = Array.unsafe_get d i && go (i + 1))
    in
    go 0

  (* Find the slot holding [d], or the empty slot where it belongs. *)
  let probe st h d =
    let m = st.nslots - 1 in
    let rec go i =
      let s = st.slots.(i) in
      if s = 0 then i
      else if digest_equal st st.offs.(s - 1) d then i
      else go ((i + 1) land m)
    in
    go (h land m)

  let rehash st =
    let old = st.slots in
    st.nslots <- st.nslots * 2;
    st.slots <- Array.make st.nslots 0;
    let m = st.nslots - 1 in
    Array.iter
      (fun s ->
        if s <> 0 then begin
          let off = st.offs.(s - 1) in
          (* re-derive the hash from the packed digest *)
          let len = st.arena.(off) in
          let h = ref 0x811c9dc5 in
          for i = off + 1 to off + len do
            h := (!h lxor st.arena.(i)) * 0x01000193 land max_int
          done;
          let rec place i =
            if st.slots.(i) = 0 then st.slots.(i) <- s
            else place ((i + 1) land m)
          in
          place (!h / stripes land m)
        end)
      old

  let grow_entries st dummy =
    let cap = Array.length st.offs in
    if st.n >= cap then begin
      let cap' = 2 * cap in
      let copy a fill =
        let b = Array.make cap' fill in
        Array.blit a 0 b 0 cap;
        b
      in
      st.offs <- copy st.offs 0;
      st.gids <- copy st.gids 0;
      st.metas <- copy st.metas dummy
    end

  let append_arena st (d : int array) =
    let len = Array.length d in
    let need = st.used + len + 1 in
    if need > Array.length st.arena then begin
      let cap' = max need (2 * Array.length st.arena) in
      let fresh = Array.make cap' 0 in
      Array.blit st.arena 0 fresh 0 st.used;
      st.arena <- fresh
    end;
    let off = st.used in
    st.arena.(off) <- len;
    Array.blit d 0 st.arena (off + 1) len;
    st.used <- need;
    off

  (* The one locked read-modify-write every caller goes through:
     [f None] creates the meta for a fresh digest, [f (Some m)] reads
     or mutates the existing one; both run under the stripe lock (keep
     them small and never re-enter the table from [f]). *)
  let update t (d : int array) f =
    let h = Ikey.hash d in
    let st = t.tab.(h land t.mask) in
    if t.locked then Mutex.lock st.mu;
    let r =
      match
        let i = probe st (h / stripes) d in
        let s = st.slots.(i) in
        if s <> 0 then `Found (s - 1)
        else `Empty i
      with
      | `Found l ->
          let meta, r = f (Some st.metas.(l)) in
          st.metas.(l) <- meta;
          (st.gids.(l), r)
      | `Empty i ->
          let meta, r = f None in
          grow_entries st meta;
          let l = st.n in
          st.n <- l + 1;
          st.offs.(l) <- append_arena st d;
          let gid = Atomic.fetch_and_add t.counter 1 in
          st.gids.(l) <- gid;
          st.metas.(l) <- meta;
          st.slots.(i) <- l + 1;
          if 4 * st.n > 3 * st.nslots then rehash st;
          (gid, r)
    in
    if t.locked then Mutex.unlock st.mu;
    r

  (* Unit-specialised entry point for callers that only want
     hash-consed ids with no per-entry bookkeeping. *)
  let intern (t : unit t) d =
    fst (update t d (function Some () -> ((), false) | None -> ((), true)))

  (* Sequential iteration over every entry (id, meta).  Call only after
     all workers have joined: no locks are taken. *)
  let iter t f =
    Array.iter
      (fun st ->
        for l = 0 to st.n - 1 do
          f st.gids.(l) st.metas.(l)
        done)
      t.tab
end
