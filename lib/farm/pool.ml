(* One mutex guards everything: the queue, the reorder buffer and the
   emission cursor.  Workers hold it only to dequeue and to emit —
   simulator runs (the expensive part) happen outside the lock. *)

type probe = {
  p_enqueue : seq:int -> depth:int -> unit;
  p_dequeue : seq:int -> domain:int -> depth:int -> unit;
  p_emit : seq:int -> unit;
}

type ('ctx, 'job, 'res) t = {
  mutex : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  queue : (int * 'job) Queue.t;
  queue_bound : int;
  mutable next_seq : int;       (* next submission sequence number *)
  mutable next_emit : int;      (* next sequence number to emit *)
  pending : (int, 'res) Hashtbl.t;  (* reorder buffer *)
  mutable closed : bool;        (* no further submissions *)
  mutable interrupted : bool;
  mutable crashes : int;
  init : int -> 'ctx;
  work : 'ctx -> seq:int -> 'job -> 'res;
  crashed : seq:int -> 'job -> exn:string -> backtrace:string -> 'res;
  dropped : seq:int -> 'job -> 'res;
  emit : 'res -> unit;
  probe : probe option;
  mutable workers : unit Domain.t array;
  mutable joined : bool;
}

(* Called with the lock held.  Results emit strictly in sequence order;
   a result whose predecessors are still running parks in [pending].
   The probe fires after [emit] so an observer counting emissions sees
   the record already in the stream.  Probe callbacks never take the
   pool lock (documented contract), so pool-lock -> observer-lock is
   the only ordering that occurs.  If [emit] raises, the lock is
   released before the exception leaves, so the other domains and the
   submitter are not left waiting on it forever. *)
let stash t seq res =
  Hashtbl.replace t.pending seq res;
  let rec flush () =
    match Hashtbl.find_opt t.pending t.next_emit with
    | None -> ()
    | Some res ->
      let seq = t.next_emit in
      Hashtbl.remove t.pending seq;
      t.next_emit <- seq + 1;
      (match t.emit res with
       | () -> ()
       | exception e ->
         Mutex.unlock t.mutex;
         raise e);
      (match t.probe with None -> () | Some p -> p.p_emit ~seq);
      flush ()
  in
  flush ()

let worker t index =
  let ctx = ref (t.init index) in
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.not_empty t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let seq, job = Queue.pop t.queue in
      (match t.probe with
       | None -> ()
       | Some p -> p.p_dequeue ~seq ~domain:index ~depth:(Queue.length t.queue));
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      let res =
        try t.work !ctx ~seq job
        with exn ->
          let backtrace = Printexc.get_backtrace () in
          let exn = Printexc.to_string exn in
          (* the context may be mid-mutation; rebuild it before the next
             job rather than trust it *)
          ctx := t.init index;
          Mutex.lock t.mutex;
          t.crashes <- t.crashes + 1;
          Mutex.unlock t.mutex;
          t.crashed ~seq job ~exn ~backtrace
      in
      Mutex.lock t.mutex;
      stash t seq res;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ?(domains = 1) ?(queue_bound = 256) ?probe ~init ~work ~crashed
    ~dropped ~emit () =
  if domains < 1 then invalid_arg "Pool.create: domains must be positive";
  if domains > 64 then invalid_arg "Pool.create: at most 64 domains";
  if queue_bound < 1 then
    invalid_arg "Pool.create: queue_bound must be positive";
  (* The requested count is honoured even beyond the core count: a
     determinism test needs 4 real domains on a 1-core CI runner, and
     silently degrading to fewer would hide exactly the interleavings
     it exists to exercise. *)
  let t =
    { mutex = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      queue_bound;
      next_seq = 0;
      next_emit = 0;
      pending = Hashtbl.create 64;
      closed = false;
      interrupted = false;
      crashes = 0;
      init;
      work;
      crashed;
      dropped;
      emit;
      probe;
      workers = [||];
      joined = false }
  in
  t.workers <- Array.init domains (fun i -> Domain.spawn (fun () -> worker t i));
  t

let submit t job =
  Mutex.lock t.mutex;
  while
    Queue.length t.queue >= t.queue_bound && not t.closed && not t.interrupted
  do
    Condition.wait t.not_full t.mutex
  done;
  if t.closed || t.interrupted then begin
    Mutex.unlock t.mutex;
    false
  end
  else begin
    let seq = t.next_seq in
    Queue.add (seq, job) t.queue;
    t.next_seq <- seq + 1;
    (match t.probe with
     | None -> ()
     | Some p -> p.p_enqueue ~seq ~depth:(Queue.length t.queue));
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex;
    true
  end

let interrupt t =
  Mutex.lock t.mutex;
  if not t.interrupted then begin
    t.interrupted <- true;
    Condition.broadcast t.not_full;
    Condition.broadcast t.not_empty;
    (* drain: queued jobs keep their sequence slots, so the dropped
       records interleave at the right places in the result stream;
       popping first means a raising [emit] cannot answer a job twice *)
    while not (Queue.is_empty t.queue) do
      let seq, job = Queue.pop t.queue in
      stash t seq (t.dropped ~seq job)
    done
  end;
  Mutex.unlock t.mutex

let join t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  let workers = if t.joined then [||] else t.workers in
  t.joined <- true;
  Mutex.unlock t.mutex;
  Array.iter Domain.join workers;
  assert (Hashtbl.length t.pending = 0)

let crashes t =
  Mutex.lock t.mutex;
  let n = t.crashes in
  Mutex.unlock t.mutex;
  n
