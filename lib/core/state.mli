(** Complete machine state.

    Bundles the data path (register file, memory, I/O ports), the control
    path state (one PC, one condition code and one synchronisation signal
    per FU — the paper's [S_i], [sd_i]/[CC_i] and [SS_i]), the hazard log
    and statistics.

    Condition codes start undefined (Figure 10 prints them as [X]) and
    become defined when a compare executes on that FU.  Synchronisation
    signals start at BUSY.

    Every register and memory result waits in one write-back queue,
    [queue], until the end of the cycle it is due in, where
    {!Exec.commit_cycle} lands it, so the register file and memory hold
    committed values only.  Under the research model's unit latency a
    result is due in the cycle that issued it; under a pipelined
    datapath, [result_latency - 1] cycles later.  Condition-code updates
    are not pipelined: they wait in [scratch] for the end of the issuing
    cycle.

    The [scratch] and [queue] fields are preallocated working storage
    for the simulator hot loop ({!Engine}, {!Exec}); other clients
    should ignore them.  The hot loop keeps slot and row indices into
    the program's decoded image there ({!Program.image}), plain ints,
    so a cycle stores no pointer into them. *)

open Ximd_isa

type scratch = {
  slots : int array;
      (** per FU: the image slot it issues this cycle (see
          {!Program.image}), or its slot in the halt row when it does
          not issue *)
  leaders : int array;
      (** this cycle's group leaders in FU order; as many as there are
          FUs with [record.lead.(fu) = fu].  A group is the FUs one
          sequencer step serves ({!Engine}): its leader is its lowest
          member, and the leader's PC and control field are the
          group's.  The fields below marked "per group" are indexed by
          leader. *)
  members : int array;       (** per group: its issuing members *)
  rows : int array;
      (** per group: the image row it fetched, {!Program.length} (the
          halt row) once its PC has left the program *)
  ctrl : int array;          (** per group: the slot its control comes from *)
  taken : bool array;
      (** per group: branch-condition outcome, set for conditional
          branches only *)
  labels : int array;
      (** the partition as a label vector: FU [i]'s SSET is named by its
          lowest member, [labels.(i)].  {!Engine} rewrites it in place
          every cycle and replaces [partition] with
          [Partition.of_labels labels] only when a label changed, so
          [partition] is a new value exactly when the grouping changes.
          All zeros (one SSET) after {!create} and {!reset}. *)
  mutable cc_len : int;
      (** condition-code updates staged in [record.cc_fu]/[cc_val] for
          the end of the cycle *)
  record : Ximd_obs.Cycle.t;
      (** the cycle the engine works in and observers read: which FUs
          issued and their groups, the start-of-cycle PCs, each group's
          next PC and spin flag, the sync levels the branch evaluation
          read ([ss_before], copied only when a sink is attached; its
          [ss] is [sss] itself), the staged condition codes and the
          commit's counts.  Its per-slot observer fields are allocated
          only when a sink is attached. *)
}
(** Per-cycle scratch buffers, sized [n_fus], reused every cycle instead
    of allocated per step. *)

type queue = {
  mutable q_len : int;      (** entries [0, q_len) are queued *)
  q_due : int array;        (** the cycle at whose end the result lands *)
  q_mem : bool array;       (** memory store vs. register write *)
  q_fu : int array;         (** the FU that issued it *)
  q_loc : int array;        (** register index or memory address *)
  q_value : Value.t array;
  reg_writes : int array;
      (** per register: its writes in the commit under way; all zero
          between commits *)
}
(** Register and memory results not yet committed, in issue order, as
    parallel arrays sized [2 * n_fus * result_latency]: an FU issues at
    most one result a cycle (two under a duplicated write) and a result
    stays queued for [result_latency] cycles at most.  Since the due
    cycle follows issue order, the results due at a commit are a prefix
    of the queue. *)

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
  queue : queue;
  faults : Ximd_machine.Fault.t option;
      (** fault-injection session; [None] (the default) costs the
          simulators a single branch per cycle and nothing else *)
  obs : Ximd_obs.Sink.t option;
      (** observability sink (see {!Ximd_obs.Sink}); [None] (the
          default) costs {!Engine.step} three predictable branches a
          cycle and nothing else: at the top of the cycle, before the
          control phase, and at the end, where the sink takes the
          finished cycle's record *)
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
    The program is validated every time, with no cache.
    @raise Invalid_argument if {!Program.validate} rejects the program
    under [config], or if [obs] was built for a different FU count. *)

val reset : ?program:Program.t -> t -> unit
(** Rewinds the state to cycle 0 — exactly the state {!create} would
    build — without reallocating the register/memory/scratch arenas or
    the write-back queue, so repeated runs amortise construction (see
    {!Session}).  [program] swaps in a different program for the next
    run, validated as by {!create}; omitted, the current program is
    kept.  The configuration (and with it every arena size) is fixed
    for the lifetime of the state.

    Registers, memory and I/O ports are zeroed/cleared: callers must
    reapply their initialisation (a {!Session} re-runs its [setup]).
    An attached fault session rewinds to replay the identical schedule;
    an attached observability sink is {!Ximd_obs.Sink.reset}.
    @raise Invalid_argument if {!Program.validate} rejects [program]
    under the state's configuration. *)

val n_fus : t -> int
val all_halted : t -> bool

val in_flight_count : t -> int
(** Number of results awaiting write-back.  Between cycles these are
    the pipelined ones: under unit latency every result lands in the
    cycle that issued it. *)

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
