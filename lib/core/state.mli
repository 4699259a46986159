(** Complete machine state.

    Bundles the data path (register file, memory, I/O ports), the control
    path state (one PC, one condition code and one synchronisation signal
    per FU — the paper's [S_i], [sd_i]/[CC_i] and [SS_i]), the hazard log
    and statistics.

    Condition codes start undefined (Figure 10 prints them as [X]) and
    become defined when a compare executes on that FU.  Synchronisation
    signals start at BUSY.

    The [scratch] and [inflight] fields are preallocated working storage
    for the simulator hot loop ({!Engine}, {!Exec}); they carry no
    architectural state between cycles and other clients should ignore
    them.  The hot loop keeps slot and row indices into the program's
    decoded image there ({!Program.image}), plain ints, so a cycle
    stores no pointer into them. *)

open Ximd_isa

type scratch = {
  slots : int array;
      (** per FU: the image slot it issues this cycle (see
          {!Program.image}), or its slot in the halt row when it does
          not issue *)
  was_live : bool array;     (** issuing at start of cycle *)
  lead : int array;
      (** per FU: the leader of its group this cycle, or -1 if it is in
          no running group.  A group is the FUs one sequencer step
          serves ({!Engine}): its leader is its lowest member, and the
          leader's PC and control field are the group's.  The fields
          below marked "per group" are indexed by leader. *)
  leaders : int array;
      (** this cycle's group leaders in FU order; as many as there are
          FUs with [lead.(fu) = fu] *)
  members : int array;       (** per group: its issuing members *)
  rows : int array;
      (** per group: the image row it fetched, {!Program.length} (the
          halt row) once its PC has left the program *)
  ctrl : int array;          (** per group: the slot its control comes from *)
  taken : bool array;
      (** per group: branch-condition outcome, set for conditional
          branches only *)
  next_pc : int array;       (** per group: the resolved next PC, -1 if it halts *)
  spun : bool array;         (** per group: branch re-selected its PC *)
  old_pcs : int array;       (** PCs at start of cycle *)
  labels : int array;
      (** the partition as a label vector: FU [i]'s SSET is named by its
          lowest member, [labels.(i)].  {!Engine} rewrites it in place
          every cycle and replaces [partition] with
          [Partition.of_labels labels] only when a label changed, so
          [partition] is a new value exactly when the grouping changes.
          All zeros (one SSET) after {!create} and {!reset}. *)
  ss_before : Sync.t array;
      (** per-FU sync levels the branch evaluation read, copied only
          when a sink is attached; [sss] differs where an edge fired *)
  cc_fu : int array;         (** staged condition-code updates… *)
  cc_val : bool array;       (** …with their new values *)
  mutable cc_len : int;
  mutable commit_results : int;  (** results the last commit moved… *)
  mutable commit_ccs : int;
      (** …of which condition codes: the first [commit_ccs] entries of
          [cc_fu]/[cc_val] *)
}
(** Per-cycle scratch buffers, sized [n_fus], reused every cycle instead
    of allocated per step. *)

type inflight = {
  mutable ifl_len : int;
  mutable ifl_due : int array;     (** cycle whose end the write commits at *)
  mutable ifl_is_mem : bool array; (** memory store vs. register write *)
  mutable ifl_fu : int array;
  mutable ifl_loc : int array;     (** register index or memory address *)
  mutable ifl_value : Value.t array;
}
(** Pipelined datapath results not yet committed, in issue order, as
    growable parallel arrays (empty when [config.result_latency = 1]). *)

type t = {
  config : Config.t;
  mutable program : Program.t;
      (** mutable only so {!reset} can swap in the next program of a
          sweep; simulators treat it as fixed for the duration of a
          run *)
  regs : Ximd_machine.Regfile.t;
  mem : Ximd_machine.Memory.t;
  io : Ximd_machine.Ioport.t;
  log : Ximd_machine.Hazard.log;
  stats : Stats.t;
  mutable cycle : int;
  pcs : int array;
  ccs : bool option array;     (** [None] = never set ([X] in traces) *)
  sss : Sync.t array;
  halted : bool array;
  mutable partition : Partition.t;
  scratch : scratch;
  inflight : inflight;
  faults : Ximd_machine.Fault.t option;
      (** fault-injection session; [None] (the default) costs the
          simulators a single branch per cycle and nothing else *)
  obs : Ximd_obs.Sink.t option;
      (** observability sink (see {!Ximd_obs.Sink}); [None] (the
          default) costs {!Engine.step} three predictable branches a
          cycle and nothing else: at the top of the cycle, before the
          control phase, and at the end, where one function reports
          the finished cycle *)
}

val create :
  ?config:Config.t ->
  ?faults:Ximd_machine.Fault.t ->
  ?obs:Ximd_obs.Sink.t ->
  Program.t ->
  t
(** Fresh state at cycle 0, all PCs at address 0, single-SSET partition.
    [faults] arms deterministic fault injection (see
    {!Ximd_machine.Fault}); omitted, the run is fault-free.  [obs]
    attaches an observability sink the simulators feed events and
    metrics into; omitted, the run is unobserved and pays nothing.
    @raise Invalid_argument if {!Program.validate} rejects the program
    under [config], or if [obs] was built for a different FU count. *)

val reset : ?program:Program.t -> t -> unit
(** Rewinds the state to cycle 0 — exactly the state {!create} would
    build — without reallocating the register/memory/scratch arenas or
    the in-flight queue, so repeated runs amortise construction (see
    {!Session}).  [program] swaps in a different program for the next
    run; omitted, the current program is kept.  The configuration (and
    with it every arena size) is fixed for the lifetime of the state.

    Registers, memory and I/O ports are zeroed/cleared: callers must
    reapply their initialisation (a {!Session} re-runs its [setup]).
    An attached fault session rewinds to replay the identical schedule;
    an attached observability sink is {!Ximd_obs.Sink.reset}.
    @raise Invalid_argument if {!Program.validate} rejects [program]
    under the state's configuration. *)

val n_fus : t -> int
val all_halted : t -> bool

val in_flight_count : t -> int
(** Number of pipelined results awaiting write-back. *)

val reg : t -> int -> Value.t
(** Convenience register read by index. *)

val set_reg : t -> int -> Value.t -> unit
val mem_get : t -> int -> Value.t
val mem_set : t -> int -> Value.t -> unit

val apply_inits :
  t -> regs:(Reg.t * Value.t) list -> mem:(int * Value.t) list -> unit
(** Sets each register of [regs], then each memory word of [mem]: the
    initialisers a command line or a farm job gives. *)

val hazards : t -> Ximd_machine.Hazard.event list
