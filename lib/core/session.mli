(** Reusable run sessions: amortise state construction across runs.

    A session owns one {!State.t} and a sequencing {!Engine.model}, and
    {!run} executes a complete program run on it — {!State.reset} (so
    the flat register/memory/scratch arenas are reused rather than
    reallocated), then the caller's [setup], then {!Engine.run}.  For
    short programs the state construction dominates a one-shot run, so
    sweeps, benchmarks and repeated CLI runs ([--repeat]) go
    substantially faster on a session; [ledger.exe trace]
    (bench/ledger/README.md) reports the split as [session.create_us],
    [session.reset_us], [session.setup_us] and [session.run_us].

    The configuration (and with it every arena size) is fixed when the
    session is created; the program may change between runs via
    [?program], so a sweep over many programs on one machine shape pays
    construction once.

    (This is the run-session layer of the engine refactor; it lives in
    its own module rather than under {!Run} because {!Run} sits below
    {!State} in the dependency order.) *)

type t

val create :
  ?config:Config.t ->
  ?faults:Ximd_machine.Fault.t ->
  ?obs:Ximd_obs.Sink.t ->
  model:Engine.model ->
  Program.t ->
  t
(** Builds the session's state once (same contract as {!State.create}).
    An attached fault session replays its schedule identically on every
    run; an attached sink is {!Ximd_obs.Sink.reset} at the start of each
    run, so after a run it holds that run's data.
    @raise Invalid_argument as {!State.create}. *)

val run :
  ?tracer:Tracer.t ->
  ?watchdog:Watchdog.t ->
  ?budget:int ->
  ?poll:(unit -> unit) ->
  ?program:Program.t ->
  ?setup:(State.t -> unit) ->
  t ->
  Run.outcome
(** One complete run: {!State.reset} (swapping in [program] if given),
    then [setup] (register/memory/port initialisation — the state is
    freshly zeroed, so initialisation must be reapplied on every run),
    then {!Engine.run} under the session's model.  [budget] and [poll]
    are the per-run resource-limit and supervision hooks of
    {!Engine.run}.  A run on a session is indistinguishable from a run
    on a freshly created state.
    @raise Invalid_argument as {!State.reset} and {!Engine.run}. *)

val state : t -> State.t
(** The session's state — inspect registers, stats or hazards after a
    run.  Contents are rewound by the next {!run}. *)

val model : t -> Engine.model

val runs : t -> int
(** Number of completed {!run} calls. *)
