(** The supervised run farm: simulator sessions behind a {!Pool}.

    Each worker domain owns a small cache of reusable
    {!Ximd_core.Session}s keyed by machine shape, so a sweep of many
    jobs over few configurations pays state construction a handful of
    times per domain.  Around each run the farm enforces the job's
    supervision spec:

    - {b cycle budget} ([budget]) via {!Ximd_core.Session.run}'s budget
      limit — deterministic, lands in the record as
      [Budget_exceeded];
    - {b wall-clock deadline} ([deadline_ms]) via {!Ximd_core.Session.run}'s
      poll hook — an overrun aborts the attempt and, with [retries] left,
      re-runs it after a seed-deterministic backoff;
    - {b crash isolation} — an attempt that raises becomes a [Crashed]
      record carrying the exception, a backtrace and the job spec for
      replay, and the worker's session cache is rebuilt;
    - {b strict rejection} — an unparseable spec line, unreadable file,
      unknown workload or invalid machine shape becomes a [Rejected]
      record in the job's stream position.

    Hazard policy is forced to [Record] for every job (a batch run must
    never die on one job's hazard); recorded hazards surface as a count
    in the record and exit code 5.

    Result records reach [emit] in submission order whatever the domain
    count — see {!Pool}.

    {b Campaign telemetry.}  Pass [?obs] to observe the whole campaign:
    the farm hands it to its {!Pool}, which reports enqueue, dequeue
    and emission, and reports each job's session cache hit, retry
    attempts and final outcome class ({!Record.class_label}) to the
    {!Ximd_obs.Farmobs} aggregator itself.  For jobs that finished a
    run it also folds the per-job slot taxonomy and metrics from an
    account-only {!Ximd_obs.Sink} attached to each session into the
    campaign aggregates.  Without [?obs] no sink is created and every
    instrumentation site is one [match] on [None] — the result stream
    is byte-identical either way. *)

type t

val create :
  ?domains:int ->
  ?queue_bound:int ->
  ?hook:(Job.t -> unit) ->
  ?obs:Ximd_obs.Farmobs.t ->
  emit:(Record.t -> unit) ->
  unit ->
  t
(** [hook] runs at the start of every job on the worker domain, before
    its first attempt — the test suite plants failures there; leave it
    unset otherwise.
    [emit] is called in submission order with the pool lock held (keep
    it cheap, don't call back into the farm). *)

val submit_line : t -> string -> bool
(** Parses one [ximd-job/1] line and submits it — the one way a job
    enters the farm.  A malformed line is accepted as a pre-rejected
    job so its [Rejected] record still appears at the right stream
    position.  [false] means the farm is interrupted or closed and the
    line was not accepted. *)

val reject_line : t -> string -> bool
(** [reject_line t reason] takes the next line's stream position for a
    line that was not read whole (one longer than the reader's cap): its
    [Rejected] record carries [reason] and nothing of the line.  [false]
    as for {!submit_line}. *)

val interrupt : t -> unit
(** Graceful shutdown: queued jobs become [Dropped] records, in-flight
    jobs finish, the result stream stays complete. *)

val join : t -> unit
(** Closes the farm and returns once every accepted job's record has
    been emitted. *)
