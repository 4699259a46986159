(** Domain-sharded supervised job pool.

    The pool is generic over jobs, results and per-worker context; the
    farm layers simulator sessions on top.  Its contracts are the
    robustness properties the batch front-end depends on:

    - {b one result per job} — a job either completes ([work]), raises
      ([crashed] builds its result and the worker's context is rebuilt
      before the next job), or is drained at interrupt ([dropped]);
    - {b deterministic emission order} — results reach [emit] in
      submission order regardless of the domain count or which domain
      ran which job, via a bounded reorder buffer;
    - {b backpressure} — {!submit} blocks while the queue is at its
      bound, so a fast producer cannot balloon memory;
    - {b graceful shutdown} — {!interrupt} stops dispatch, drains queued
      jobs through [dropped] (no silent truncation), and lets in-flight
      jobs finish.

    Every callback receives the job's submission sequence number
    ([seq]), which is also its position in the emitted result stream —
    the key an external observer correlates lifecycle events with.

    [emit] is called with the pool's lock held: it must not call back
    into the pool and should be cheap (write a line, stash in a list).
    If it raises, the pool releases its lock and the exception
    propagates to the caller that triggered the emission: it ends that
    worker domain (and {!join} re-raises it) or leaves {!interrupt}. *)

type probe = {
  p_enqueue : seq:int -> depth:int -> unit;
      (** after the job entered the queue; [depth] includes it *)
  p_dequeue : seq:int -> domain:int -> depth:int -> unit;
      (** a worker picked the job up; [depth] is what remains queued *)
  p_emit : seq:int -> unit;
      (** the job's result just left the reorder buffer via [emit] *)
}
(** Telemetry taps on the job lifecycle.  All three fire with the pool
    lock held: they must be cheap and must never call back into the
    pool (they may take their own locks — pool lock -> observer lock is
    then the only ordering that occurs).  When no probe is installed
    the cost is one branch per event. *)

type ('ctx, 'job, 'res) t

val create :
  ?domains:int ->
  ?queue_bound:int ->
  ?probe:probe ->
  init:(int -> 'ctx) ->
  work:('ctx -> seq:int -> 'job -> 'res) ->
  crashed:(seq:int -> 'job -> exn:string -> backtrace:string -> 'res) ->
  dropped:(seq:int -> 'job -> 'res) ->
  emit:('res -> unit) ->
  unit ->
  ('ctx, 'job, 'res) t
(** Spawns exactly [domains] worker domains (default 1) — the requested
    count is honoured even beyond the machine's core count, so
    interleaving tests mean what they say on small runners.
    [queue_bound] (default 256) is the backpressure limit on
    queued-not-yet-running jobs.
    @raise Invalid_argument if [domains] is not in [1..64] or
    [queue_bound] is not positive. *)

val submit : ('ctx, 'job, 'res) t -> 'job -> bool
(** Enqueues a job, blocking while the queue is full.  [false] means the
    pool was interrupted or closed and the job was {e not} accepted (the
    caller owns its fate). *)

val interrupt : ('ctx, 'job, 'res) t -> unit
(** Stops dispatch: queued jobs drain through [dropped] (in order, into
    the same reorder buffer), further {!submit}s return [false],
    in-flight jobs run to completion.  Idempotent; safe from a signal
    handler's notion of urgency, but must be called from ordinary
    context (it takes the pool lock). *)

val join : ('ctx, 'job, 'res) t -> unit
(** Closes the queue, waits for every worker domain, and returns once
    every submitted job's result has been emitted.  Idempotent. *)

val crashes : ('ctx, 'job, 'res) t -> int
(** Worker crashes survived so far (contexts rebuilt). *)
