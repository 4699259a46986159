(** Shared execution engine for one cycle's data operations.

    Every sequencing model of the {!Engine} uses this module: the
    models differ only in their control paths.  All reads observe
    start-of-cycle state; all writes (registers, memory, condition codes)
    are staged and applied by {!commit_cycle}.

    Condition evaluation builds no closures or mask lists (the ALL/ANY
    barrier tests are top-level recursions over the sync array and the
    mask, so a group waiting at a barrier allocates nothing), condition-code
    updates go through the preallocated buffer in [state.scratch],
    pipelined results live in the growable arrays of [state.inflight],
    and values are immediate ints, so neither {!exec_data} nor
    {!commit_cycle} allocates on the hazard-free path.  A hazard report
    allocates its event, and so do the first store to an untouched
    memory page and the growth of the in-flight queue or the store
    stage.  [ledger.exe trace] counts both phases per cycle as
    [engine.M.exec_words] and [engine.M.commit_words].

    Neither reports to the observability sink: {!Engine.step} reads
    what they did back from the state and [state.scratch] at the end
    of the cycle.  Only {!apply_faults} (the faults that fired) and
    {!drain_pipeline} (the drained commits and halted slots) call the
    sink, since neither runs inside a cycle's report. *)

open Ximd_isa

val holds : State.t -> Cond.t -> bool
(** A branch condition's value against the start-of-cycle CC/SS state;
    a never-set condition code reads [false].  Reports nothing: a group
    of sequencers evaluates its branch once, and {!Engine} reports each
    sequencer's hazard itself. *)

val unset_cc : State.t -> Cond.t -> int
(** The condition code the condition reads that no compare has set yet,
    or [-1]. *)

val undefined_cc : State.t -> fu:int -> int -> unit
(** [undefined_cc state ~fu j] reports
    {!Ximd_machine.Hazard.Undefined_cc} for sequencer [fu] reading
    [cc j]. *)

val eval_cond : State.t -> fu:int -> Cond.t -> bool
(** {!holds}, after reporting {!undefined_cc} against [fu] if the
    condition reads a never-set condition code: one sequencer's branch
    evaluation. *)

val exec_data : State.t -> fu:int -> Parcel.data -> unit
(** Executes one data operation for [fu]: reads operands, stages register
    and memory writes, performs I/O, updates statistics, and pushes the
    staged condition-code update for compares into [state.scratch]. *)

val commit_cycle : State.t -> unit
(** Commits staged register and memory writes (including in-flight
    pipelined results whose write-back stage is this cycle) and applies
    the condition-code updates buffered in [state.scratch], leaving the
    number of results and of condition codes committed in
    [scratch.commit_results] and [scratch.commit_ccs].  Does not advance
    PCs or the cycle counter — that is the control path's job. *)

val apply_faults : State.t -> Ximd_machine.Fault.t -> unit
(** Fires the fault events due this cycle: control-plane faults (SS/CC
    flips, stuck halts) mutate the state directly; write-port faults arm
    the session's per-cycle drop/duplicate masks consulted by the staging
    functions.  The simulators call this at the top of each cycle, only
    when [state.faults] is [Some _]. *)

val drain_pipeline : State.t -> unit
(** Commits any still-in-flight pipelined results after all FUs have
    halted, advancing the cycle counter per write-back stage.  A no-op
    under the research model's single-cycle latency. *)
