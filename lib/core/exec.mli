(** Shared execution engine for one cycle's data operations.

    Every sequencing model of the {!Engine} uses this module: the
    models differ only in their control paths.  All reads observe
    start-of-cycle state.  This module is the machine's one write-back
    path: every register and memory result, under any [result_latency],
    joins the queue in [state.queue], due at the end of cycle [issue +
    result_latency - 1], and {!commit_cycle} lands the due ones, with
    the multiple-write rule (the highest-numbered FU's value wins, the
    latest write on ties; the hazard is reported first).  Condition-code
    updates wait in [state.scratch] and land at the end of the issuing
    cycle.

    Condition evaluation builds no closures or mask lists (the ALL/ANY
    barrier tests are top-level recursions over the sync array and the
    mask, so a group waiting at a barrier allocates nothing), the queue
    and the condition-code buffer are preallocated at their largest,
    values are immediate ints and operands come from the program's
    decoded image, so neither {!exec_cycle} nor {!commit_cycle}
    allocates on the hazard-free path (tier 1's [misc] case "the image
    executor allocates nothing" pins it for every kind of data
    operation).  A hazard report allocates its event, and so do the
    first store to an untouched memory page and the growth of an output
    port's log.  [ledger.exe trace] counts both phases per cycle as
    [engine.M.exec_words] and [engine.M.commit_words].

    Neither reports to the observability sink: what they did is left
    in the state and in the cycle record [state.scratch] holds, which
    {!Engine.step} hands to the sink at the end of the cycle.  Only
    {!apply_faults} (the faults that fired) and {!drain_pipeline} (one
    {!Ximd_obs.Sink.on_drain} per drained cycle) call the sink, since
    neither runs inside an observed cycle. *)

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

val exec_cycle : State.t -> Program.image -> unit
(** Executes one cycle's data operations from the program's decoded
    image ({!Program.image}): every FU whose [scratch.record.was_live]
    is set runs the slot [scratch.slots.(fu)], reading its operands,
    queueing its register or memory result, performing its I/O,
    updating the statistics and pushing a compare's condition-code
    update into [state.scratch]; every other FU counts a halted slot.
    A hazard that aborts the cycle under the [Raise] policy drops what
    this cycle queued and staged before it re-raises, so no later
    commit lands any of it, as for an aborted {!commit_cycle}, and puts
    back every I/O port the cycle read from or wrote to
    ({!Ximd_machine.Ioport.restore}).  The statistics keep counting the
    operations the aborted cycle issued.  Under unit
    latency a store outside its FU's reach ({!Ximd_machine.Memory.accessible})
    is reported and dropped here, at issue.  The whole of
    each operation runs inside this module, reading register operands
    straight from {!Ximd_machine.Regfile.values}. *)

val exec_data : State.t -> fu:int -> Parcel.data -> unit
(** Executes one data operation for [fu] as {!exec_cycle} executes a
    slot, after lowering it to a one-parcel image, which allocates.
    The engine never calls it; [bench/ledger/layers.ml]'s phase probes
    do. *)

val commit_cycle : State.t -> unit
(** Lands the queued results due by the end of this cycle, a prefix of
    the queue, as the reference model does: first a pipelined store
    outside its FU's reach is reported and dropped; then registers land
    in order of first write, then stores in order of first store, each
    multiple write reported before its winner lands.  Then applies the
    condition-code updates buffered in [state.scratch], leaving the
    number of results and of condition codes committed in the cycle
    record's [commit_results] and [commit_ccs].  A commit that a
    [Raise]-policy hazard aborts drops the rest of its due results and
    its condition codes, so the next commit lands none of them.  Does
    not advance PCs or the cycle counter — that is the control path's
    job. *)

val apply_faults : State.t -> Ximd_machine.Fault.t -> unit
(** Fires the fault events due this cycle: control-plane faults (SS/CC
    flips, stuck halts) mutate the state directly; write-port faults arm
    the session's per-cycle drop/duplicate masks, which decide whether
    an FU's result joins the queue not at all or twice.  The simulators
    call this at the top of each cycle, only when [state.faults] is
    [Some _]. *)

val drain_pipeline : State.t -> unit
(** Commits the results still queued after all FUs have halted, one
    {!commit_cycle} per cycle, advancing the cycle counter, until the
    queue is empty.  A no-op under the research model's unit latency. *)
