(** The event sink the simulators feed.

    A sink bundles the {!Event} ring, the {!Metrics} registry, the
    {!Profile} hot-PC histogram, the optional {!Account} and {!Critpath}
    analyses and the partition history the {!Timeline} is reconstructed
    from.  It is threaded through the machine as
    [State.t.obs : Sink.t option] — [None] in the common case, so a run
    without observability pays three predictable branches a cycle and
    allocates nothing (the same discipline as fault injection).

    [Engine.step] calls {!on_partition} at the top of a cycle and
    {!on_cycle} once at its end, with the finished cycle's record
    ({!Cycle.t}); [Exec] reports fired faults and drained commits,
    [Session] the watchdog and {!finish}.  {!on_cycle} decides the
    order in which a cycle's events enter the ring and feeds every
    consumer from the one record: the metrics, the profile, the
    account and the critical path.  Everything derived (spin-streak
    histograms, barrier-wait attribution, per-FU utilisation, SSET
    width) is computed here so the simulators stay oblivious to what is
    being measured.  All hooks take the *current* (pre-increment)
    cycle.

    Metric names exposed through {!metrics}:
    - counters [cycles] (issuing cycles only: the drain that empties
      the result pipeline after the last halt adds commits but no
      cycle, while {!final_cycle}, [Stats.cycles] and the account count
      it), [commits], [cc_broadcasts], [ss_transitions],
      [partition_changes], [faults_fired], [halts],
      [events_dropped], and per-FU [fu<i>/ops], [fu<i>/live_cycles];
    - gauge [live_streams];
    - histograms [sset_width] (live streams, observed once per cycle),
      [spin_streak] (completed busy-wait lengths, cycles),
      [barrier_wait] (the subset of streaks spinning on a sync
      condition) and [commit_batch] (results per committing cycle). *)

type t

val create :
  ?trace:bool ->
  ?profile:bool ->
  ?account:bool ->
  ?critpath:bool ->
  n_fus:int ->
  code_len:int ->
  unit ->
  t
(** [trace] (record events in a ring that keeps the newest 65,536; the
    ring is allocated, and events are built, only when [trace] is on)
    defaults to [true];
    [profile] (hot-PC sampling) defaults
    to [true]; [account] (per-slot cycle accounting, one array
    increment per fu×cycle slot) defaults to [true]; [critpath]
    (dynamic dependence graph — allocates a node per committing op)
    defaults to [false] and tracks the 256 architectural registers.
    Metrics are always on, and they are not cheap: every observed cycle
    updates several counters per FU and the record's per-slot fields,
    so even a sink with no ring, profile or analysis runs a program at
    about twice its bare time ([obs.sink_lean.overhead] in
    [ledger.exe trace] read 2.0-2.4).
    @raise Invalid_argument if [n_fus] is not in [1, 64]. *)

val n_fus : t -> int

(** {1 Hooks (called by the simulators)} *)

val on_partition : t -> cycle:int -> ssets:int list list -> unit
(** Called at the top of every cycle with the partition in effect;
    records (and emits) only changes.  The engine builds a new
    partition exactly when the grouping changes, so a change is a
    physically different [ssets]. *)

val on_cycle : t -> Cycle.t -> unit
(** The end of a cycle, once: its events enter the ring in a fixed
    order — each issuing FU's fetch, the commit, the condition codes it
    broadcast, then per FU its sync edge, its halt and the branch
    resolution of the stream it closes (every issuing FU under per-FU
    sequencers; a running group after its last member, named by its
    leader).  A resolution tracks busy-wait streaks: a streak opens on
    the first spinning cycle (emitting {!Event.Barrier_enter} when the
    condition reads sync signals) and closes when the stream moves on,
    halts, or the run finishes (emitting {!Event.Barrier_exit} and
    feeding the [spin_streak]/[barrier_wait] histograms and the
    per-address wait attribution).  Then every slot is tallied into
    {!account} and the record goes to {!critpath}. *)

val on_drain : t -> cycle:int -> results:int -> unit
(** One cycle of the drain after the last halt: its commit, and a
    halted slot per FU in {!account}. *)

val on_fault : t -> cycle:int -> kind:string -> target:int -> unit
val on_watchdog : t -> cycle:int -> quiet:int -> unit

val finish : t -> cycle:int -> unit
(** End of run: closes open spin streaks and fixes the timeline's final
    cycle.  Idempotent; [Session.run] calls it once per run. *)

(** {1 Results} *)

val events : t -> Event.t list
(** Chronological; oldest events may have been dropped (see
    {!dropped_events}). *)

val dropped_events : t -> int

(** The registry, with the [events_dropped] counter synced from the
    ring's drop-oldest count at each call — so exports and campaign
    merges always carry the loss figure alongside the data it
    qualifies. *)
val metrics : t -> Metrics.t
val profile : t -> Profile.t option

val account : t -> Account.t option
(** The per-slot accounting, [None] when created with [~account:false];
    {!on_cycle} and {!on_drain} tally every slot of every cycle into
    it. *)

val critpath : t -> Critpath.t option
(** The dependence graph, [None] unless created with [~critpath:true];
    {!on_cycle} feeds it. *)

val partition_history : t -> (int * int list list) list
(** Chronological [(cycle, ssets)] change points. *)

val timeline : t -> Timeline.interval list
val final_cycle : t -> int

val barrier_waits : t -> (int * (int * int)) list
(** Per barrier address: [(pc, (entries, total_wait_cycles))], sorted by
    address.  Only sync-condition waits are attributed. *)

val fu_utilisation : t -> fu:int -> float
(** Non-nop data operations per live cycle of [fu]; 0. before any
    fetch. *)

val metrics_json : t -> Ximd_json.t
(** The [ximd-metrics/1] document: the metrics registry plus the
    barrier-wait attribution table (byte-stable). *)

val reset : t -> unit
(** Clear all recorded data (ring, metrics, profile, streaks, partition
    history) so the sink can observe another run without reallocating —
    the benchmark harness reuses one sink across thousands of runs. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable roll-up: per-FU utilisation, SSET width, spin
    streaks, barrier waits by address. *)
