(** Campaign telemetry aggregator for the run farm.

    One [Farmobs.t] observes one campaign, passed as [?obs] to
    [Ximd_farm.Pool.create] (and through [Ximd_farm.Farm.create]).  The
    pool calls {!on_enqueue}, {!on_dequeue} and {!on_emit} itself; its
    job layer — the farm, or [tools/fuzz run] — calls the session,
    retry and completion hooks.  From these lifecycle boundaries of
    each job (enqueue → dequeue → session ready → run end → emit) the
    aggregator assembles a {!Span.t} per job plus merged
    campaign-level aggregates.  All hooks are thread-safe (one internal
    mutex) and none of them calls back into the pool, so they are safe
    to invoke with the pool lock held.

    Telemetry costs nothing when absent: callers thread a
    [Farmobs.t option] and branch once per site, the established
    zero-overhead-when-off discipline of this codebase.

    {b Logical vs. timing views.}  Exports keep two strictly separated
    views of the same campaign:

    - the {e logical} view ({!logical_json}, line 2 of {!rollup_json})
      contains only facts that are a pure function of the campaign spec
      — outcome counts, retry histogram, cycles, merged account
      taxonomy, merged metrics, per-job logical facts in stream order.
      Its bytes are identical across repeat runs and domain counts, so
      it is safe to golden-diff in CI;
    - the {e fleet} view (line 3 of {!rollup_json}) and the Chrome
      trace ({!chrome_json}) carry wall times, domain identities,
      queue depths and cache behaviour — real measurements that differ
      run to run and are never golden-diffed.

    The clock is injected so this library stays dependency-free and
    tests can drive spans deterministically; production callers pass
    [Unix.gettimeofday]. *)

type t

val create :
  ?progress_every:int ->
  ?progress:(string -> unit) ->
  clock:(unit -> float) ->
  unit ->
  t
(** [create ~clock ()] starts observing a campaign; [clock ()] must
    return wall-clock seconds.  When [progress_every] is positive, the
    [progress] callback receives one [ximd-progress/1] NDJSON line
    after every [progress_every]-th emitted record (the callback runs
    with internal locks held — it must not call back into this module
    or the pool). *)

(** {1 Lifecycle hooks} *)

val on_enqueue : t -> seq:int -> depth:int -> unit
(** A job entered the pool queue at stream position [seq]; [depth] is
    the queue depth after insertion. *)

val on_dequeue : t -> seq:int -> domain:int -> depth:int -> unit
(** Worker [domain] picked the job up; [depth] is the queue depth
    after removal. *)

val on_session_ready : t -> seq:int -> cache_hit:bool -> unit
(** The worker's session for this job is ready, either freshly built
    ([cache_hit = false]) or reused from the per-domain cache. *)

val on_retry : t -> seq:int -> attempt:int -> unit
(** The job failed attempt [attempt] with a retryable outcome and is
    about to run again. *)

val on_complete :
  t ->
  seq:int ->
  id:string ->
  result:Span.outcome ->
  attempts:int ->
  ?cycles:int ->
  ?n_fus:int ->
  unit ->
  unit
(** The job's final record is decided (but possibly still parked in
    the reorder buffer).  [cycles]/[n_fus] default to 0 for jobs that
    never finished a run. *)

val on_emit : t -> seq:int -> unit
(** The record left the reorder buffer into the result stream: the
    span is finalised, aggregates update, and the progress heartbeat
    may fire.  Jobs emitted without an [on_complete] (e.g. an
    interrupt drain) are recorded with outcome ["dropped"]. *)

(** {1 Per-job aggregate merging} *)

val merge_account : t -> Account.t -> unit
(** Fold one finished job's slot taxonomy into the campaign totals
    (per-class sums and total slots — commutative). *)

val merge_metrics : t -> Metrics.t -> unit
(** Fold one finished job's metrics registry into the campaign
    registry via {!Metrics.merge}. *)

(** {1 Results} *)

val spans : t -> Span.t list
(** Finalised spans in stream (seq) order. *)

val completed : t -> int
val queue_depth_high_water : t -> int

val session_cache_stats : t -> int * int
(** [(hits, misses)]. *)

val account_totals : t -> (string * int) list
(** Merged slot taxonomy, one entry per {!Account.cls} in canonical
    order. *)

val account_slots : t -> int
val total_cycles : t -> int

val merged_metrics : t -> Metrics.t
(** The live merged registry (do not mutate while workers run). *)

(** {1 Exports} *)

val logical_json : t -> string
(** The deterministic logical view, one line, keys in fixed order. *)

val rollup_json : t -> string
(** The [ximd-campaign/1] report.  Exactly three lines by
    construction: line 1 the schema header, line 2 the logical view
    (with a trailing comma), line 3 the fleet view — so CI can extract
    the golden-diffable part with [sed -n 2p], no JSON parser
    needed. *)

val chrome_json : t -> string
(** Whole-campaign Chrome [trace_event] JSON: one track per worker
    domain with outcome-coloured job slices (session/run sub-slices,
    retry and failure instants), a queue-depth counter track, and one
    async lane per job spanning enqueue → emit. *)
