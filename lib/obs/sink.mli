(** The event sink the simulators feed.

    A sink bundles the {!Event} ring, the {!Metrics} registry, the
    {!Profile} hot-PC histogram and the partition history the
    {!Timeline} is reconstructed from.  It is threaded through the
    machine as [State.t.obs : Sink.t option] — [None] in the common
    case, so a run without observability pays exactly one predictable
    branch per emission site and allocates nothing (the same discipline
    as fault injection).

    The [on_*] hooks are called by [Exec]/[Engine]/[Session] at the
    architectural points they describe; everything derived (spin-streak
    histograms, barrier-wait attribution, per-FU utilisation, SSET
    width) is computed here so the simulators stay oblivious to what is
    being measured.  All hooks take the *current* (pre-increment) cycle.

    Metric names exposed through {!metrics}:
    - counters [cycles], [commits], [cc_broadcasts], [ss_transitions],
      [partition_changes], [faults_fired], [halts],
      [events_dropped], and per-FU [fu<i>/ops], [fu<i>/live_cycles];
    - gauge [live_streams];
    - histograms [sset_width] (live streams, observed once per cycle),
      [spin_streak] (completed busy-wait lengths, cycles),
      [barrier_wait] (the subset of streaks spinning on a sync
      condition) and [commit_batch] (results per committing cycle). *)

type t

val create :
  ?ring_capacity:int ->
  ?trace:bool ->
  ?profile:bool ->
  ?account:bool ->
  ?critpath:bool ->
  n_fus:int ->
  code_len:int ->
  unit ->
  t
(** [ring_capacity] defaults to 65536 events; [trace] (record events in
    the ring) defaults to [true]; [profile] (hot-PC sampling) defaults
    to [true]; [account] (per-slot cycle accounting, one array
    increment per fu×cycle slot) defaults to [true]; [critpath]
    (dynamic dependence graph — allocates a node per committing op)
    defaults to [false] and tracks the 256 architectural registers.
    Metrics are always on — they are the cheap part.
    @raise Invalid_argument if [n_fus] is not in [1, 64]. *)

val n_fus : t -> int

(** {1 Hooks (called by the simulators)} *)

val on_fetch : t -> cycle:int -> fu:int -> pc:int -> unit
val on_data_op : t -> fu:int -> unit
(** A non-nop data operation issued on [fu]. *)

val on_commit : t -> cycle:int -> results:int -> unit
val on_cc : t -> cycle:int -> fu:int -> value:bool -> unit
val on_ss : t -> cycle:int -> fu:int -> to_done:bool -> unit

val on_control : t -> cycle:int -> fu:int -> pc:int -> spinning:bool ->
  sync:bool -> unit
(** Branch resolution on a live FU.  [spinning] — the branch re-selected
    [pc]; [sync] — the condition reads sync signals (a barrier).
    Tracks busy-wait streaks: a streak opens on the first spinning cycle
    (emitting {!Event.Barrier_enter} when [sync]) and closes when the FU
    moves on, halts, or the run finishes (emitting
    {!Event.Barrier_exit} and feeding the [spin_streak]/[barrier_wait]
    histograms and the per-address wait attribution). *)

val on_halt : t -> cycle:int -> fu:int -> unit
val on_partition : t -> cycle:int -> ssets:int list list -> unit
(** Called every cycle with the partition in effect; records (and
    emits) only changes. *)

val on_cycle_end : t -> cycle:int -> live_streams:int -> unit
val on_fault : t -> cycle:int -> kind:string -> target:int -> unit
val on_watchdog : t -> cycle:int -> quiet:int -> unit

val on_slot : t -> fu:int -> Account.cls -> unit
(** One fu×cycle slot, classified by the engine (see {!Account} for the
    taxonomy and priority).  Called for every slot of every cycle when
    accounting is on. *)

(** {2 Critical-path hooks}

    No-ops unless the sink was created with [~critpath:true]; the
    engine checks {!wants_critpath} before doing any decomposition
    work (computing masks, extracting register indices). *)

val wants_critpath : t -> bool
val cp_bind_cc : t -> fu:int -> j:int -> unit
val cp_bind_ss : t -> fu:int -> j:int -> unit
val cp_bind_all : t -> fu:int -> mask:int -> unit
val cp_bind_any : t -> fu:int -> done_mask:int -> unit

val cp_issue :
  t ->
  cycle:int ->
  fu:int ->
  pc:int ->
  r1:int ->
  r2:int ->
  w:int ->
  sets_cc:bool ->
  latency:int ->
  unit

val cp_ss_mark : t -> fu:int -> unit
val cp_end_cycle : t -> unit

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
val critpath : t -> Critpath.t option
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
