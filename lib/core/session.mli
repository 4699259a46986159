(** Run sessions: the one way to run a program to completion.

    A session owns one {!State.t} and a sequencing {!Engine.model}, and
    {!run} executes a complete program run on it — {!State.reset} (so
    the flat register/memory/scratch arenas are reused rather than
    reallocated), then the caller's [setup], then {!Engine.step} until
    the run stops.  A one-shot run is a fresh session and one {!run};
    for short programs the state construction dominates such a run, so
    sweeps, benchmarks and repeated CLI runs ([--repeat]) reuse one
    session instead.  [ledger.exe trace] (bench/ledger/README.md)
    reports the split as [session.create_us], [session.reset_us],
    [session.setup_us] and [session.run_us].

    The configuration (and with it every arena size) is fixed when the
    session is created; the program may change between runs via
    [?program], so a sweep over many programs on one machine shape pays
    construction once.

    Attachments follow one rule (see {!Engine}): the per-cycle ones, a
    fault injector and an observability sink, are fixed on the session's
    state at {!create}; the per-run ones — tracer, watchdog, cycle
    budget and supervision poll — are arguments of {!run}. *)

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
    then the model's structural checks, then {!Engine.step} until one of
    these stops the run, tested in this order before each cycle:
    - every FU has halted: the result pipeline drains and the outcome
      is {!Run.Halted};
    - the configured fuel ([max_cycles]) is spent:
      {!Run.Fuel_exhausted};
    - the per-run cycle [budget] is spent: {!Run.Budget_exceeded}.  It
      is a resource limit below the fuel, so a budget at or above the
      fuel never fires.

    Before each step, [poll] (when given) is called every 512 cycles,
    first at cycle 0, so a supervisor can enforce a wall-clock deadline:
    whatever it raises escapes [run] unchanged, and a poll that raises
    at once stops even a one-cycle run.  Then [tracer] (when given)
    records the start-of-cycle row, so its rows are cycles 0 to k−1 for
    a run of k steps.  After each step, [watchdog] (when given)
    observes the machine; once it establishes a deadlock the run stops
    with {!Run.Deadlocked} (see {!Watchdog}).  An attached sink sees the
    watchdog's verdict and, on every stop that returns, its
    {!Ximd_obs.Sink.finish} at the final cycle.

    A run on a session is indistinguishable from a run on a freshly
    created session.
    @raise Invalid_argument as {!State.reset}; with {!check}'s message
    if the program fails the model's check; or if [budget] is not
    positive. *)

val check : Engine.model -> Program.t -> (unit, string) result
(** The model's structural requirements on a program, the check {!run}
    makes before its first step: [Per_fu] runs any program; [Global]
    needs a control-consistent one ({!Program.control_consistent});
    [Banked] needs an even FU count of at least 2 and a bank-consistent
    program ({!Engine.bank_consistent}).  [Error] carries the message
    {!run} raises.  The result is a constant, so a check allocates
    nothing. *)

val state : t -> State.t
(** The session's state — inspect registers, stats or hazards after a
    run.  Contents are rewound by the next {!run}. *)
