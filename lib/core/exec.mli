(** Shared execution engine for one cycle's data operations.

    Every sequencing model of the {!Engine} uses this module: the
    models differ only in their control paths.  All reads observe
    start-of-cycle state; all writes (registers, memory, condition codes)
    are staged and applied by {!commit_cycle}.

    Condition evaluation builds no closures or mask lists, condition-code
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

val eval_cond : State.t -> fu:int -> Cond.t -> bool
(** Evaluates a branch condition against the start-of-cycle CC/SS state.
    Branching on a never-set condition code reports
    {!Ximd_machine.Hazard.Undefined_cc} and evaluates it as [false]. *)

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
