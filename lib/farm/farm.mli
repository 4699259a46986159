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
    the farm installs a {!Pool.probe} and reports each job's lifecycle
    to the {!Ximd_obs.Farmobs} aggregator — session cache hits, retry
    attempts, the final outcome class ({!Record.class_label}) — and,
    for jobs that finished a run, folds the per-job slot taxonomy and
    metrics from an account-only {!Ximd_obs.Sink} attached to each
    session into the campaign aggregates.  Without [?obs] no sink is
    created and every instrumentation site is one [match] on [None] —
    the result stream is byte-identical either way. *)

type t

val create :
  ?domains:int ->
  ?queue_bound:int ->
  ?hook:(Job.t -> unit) ->
  ?obs:Ximd_obs.Farmobs.t ->
  emit:(Record.t -> unit) ->
  unit ->
  t
(** [hook] runs at the start of every job attempt on the worker domain —
    the test suite plants failures there; leave it unset otherwise.
    [emit] is called in submission order with the pool lock held (keep
    it cheap, don't call back into the farm). *)

val submit : t -> Job.t -> bool
(** [false] means the farm is interrupted/closed and the job was not
    accepted. *)

val submit_line : t -> string -> bool
(** Parses one [ximd-job/1] line and submits it; a malformed line is
    accepted as a pre-rejected job so its [Rejected] record still
    appears at the right stream position. *)

val interrupt : t -> unit
(** Graceful shutdown: queued jobs become [Dropped] records, in-flight
    jobs finish, the result stream stays complete. *)

val join : t -> unit
val crashes : t -> int

val run_list :
  ?domains:int ->
  ?queue_bound:int ->
  ?hook:(Job.t -> unit) ->
  ?obs:Ximd_obs.Farmobs.t ->
  Job.t list ->
  Record.t list * Record.summary
(** Convenience: run the jobs, collect the records in submission order,
    summarise. *)
