(** The unified cycle engine: one pipeline, three sequencing models.

    The paper's central structural claim is that a VLIW is the
    degenerate case of an XIMD — one global sequencer versus one
    sequencer per functional unit (§2, Figure 3) — with the proposed
    Multiflow TRACE/500 (§1.4) sitting in between at exactly two.  This
    module encodes the claim directly: there is one fetch → condition
    evaluation → execute → commit pipeline, {!step}, that runs its
    sequencer work once per {e group} of FUs, and a {!model} parameter
    that only chooses the grouping rule, who counts as a sequencer, the
    SS discipline and the partition rule:

    {t
      | {!model}   | groups each cycle                  | sequencers          | SS role | partition |
      |------------|------------------------------------|---------------------|---------|-----------|
      | [Per_fu]   | live FUs at one PC, equal control  | every member        | per-FU  | executed-signature groups |
      | [Global]   | one: all FUs, led by FU 0          | one: lowest live FU | none    | fixed initial SSET |
      | [Banked]   | two fixed halves, FU 0 and FU n/2  | one per bank        | per-FU  | banks merge at equal next PC |
    }

    Every cycle, each group selects one instruction row at its leader's
    PC, evaluates one branch condition against start-of-cycle CC/SS
    state and resolves one next PC; member FUs fetch and execute their
    own data parcels; all results commit at end of cycle; then every
    member takes the next PC (or halts).  The rows are those of the
    program's decoded image ({!Program.image}, built on its first run):
    a group fetches a row index, each member executes its slot's
    resolved operands ({!Exec.exec_cycle}), and the next PC is one of
    the slot's two targets, already resolved; no phase reads a
    parcel.  What belongs to a sequencer
    stays per sequencer, in FU order: its fell-off-end and
    undefined-CC hazards, its conditional-branch count and its halt;
    spin slots are charged per issuing member.  Under per-FU
    sequencers the image's class table ({!Program.image}) finds the
    groups, so a single-SSET XIMD running VLIW-shaped code does one
    sequencer step per cycle, as the VLIW does.

    This module executes one cycle; {!Session.run} runs a program to
    completion on top of it and is the only way to do so.  Attachments
    follow one rule: the per-cycle ones (the {!Ximd_obs.Sink} in
    [state.obs], the {!Ximd_machine.Fault} injector in [state.faults])
    live on the state; the per-run ones (the {!Tracer}, the
    {!Watchdog}, the cycle budget and the supervision poll) are
    arguments of {!Session.run}.  Faults land at the top of the cycle.
    The sink sees the partition there, and the rest of the cycle once,
    at the end of {!step}: the phases do their per-cycle work in the
    cycle record that [state.scratch] holds ({!Ximd_obs.Cycle}), and
    with a sink attached the step adds what only the image knows (each
    slot's class, each group's condition, a committing op's operand
    registers) and hands the record to {!Ximd_obs.Sink.on_cycle}, which
    feeds every consumer from it.  So a cycle with nothing attached
    tests [state.obs] three times and pays nothing else.

    The hot loop keeps its per-cycle buffers, the groups included, in
    the preallocated [state.scratch], as slot and row indices into the
    image.  Under [Per_fu] and [Banked] the partition lives there as a
    label vector (each FU's lowest SSET-mate), recomputed in place every
    cycle from the image's resolved targets; [state.partition] is
    rebuilt only when a label changes.  Machine values are immediate
    ints, so execute and commit allocate nothing, and the control phase
    takes its next PC from the image as an int.  The loop is still not
    allocation-free: the closure in [State.all_halted] (once a step,
    twice under [Global]) and a new partition whenever the grouping
    changes.  [ledger.exe trace] (bench/ledger/README.md) reports the
    minor words per cycle as [engine.M.step_words]. *)

type model =
  | Per_fu
      (** One sequencer per FU: the XIMD machine, the paper's [xsim]
          (§4.1).  An FU that executes a [Halt] control stops and its
          synchronisation signal is driven to DONE from then on, so
          barriers spanning finished FUs still complete.  An FU whose
          PC leaves the program reports
          {!Ximd_machine.Hazard.Fell_off_end} against itself and
          halts. *)
  | Global
      (** One global sequencer: the VLIW baseline, the paper's
          companion [vsim] (§4.1), "a VLIW processor with similar
          characteristics".  All FUs share one program counter and one
          control operation per cycle, driven by FU 0's parcel, so
          programs must be {e control-consistent} (every parcel in a
          row carries identical control fields and sync signals — the
          VLIW coding convention of §3.1; see
          {!Program.control_consistent}).  Synchronisation signals have
          no architectural role: their fields are ignored and a halt
          leaves them as they were.  The partition is always the single
          full SSET.  A fell-off-end hazard is attributed to the lowest
          FU still issuing, which is FU 0 unless a fault has stuck it
          halted. *)
  | Banked
      (** Two sequencers over fixed FU halves: the Multiflow TRACE/500
          (§1.4).  "The proposed Multiflow TRACE/500 architecture
          contains two sequencers, one for each set of 14 functional
          units.  The two sequencers can execute in lock-step or
          independently.  This allows two processes to run concurrently
          when neither requires more than half of the machine.  XIMD is
          a generalization and formalization of this concept."  The FUs
          split into a low and a high bank, each driven by its leader's
          control fields (FU 0 and FU n/2), so the FU count must be
          even and programs must be {e bank-consistent} (see
          {!bank_consistent}) — precisely the structural restriction
          XIMD lifts: a program like MINMAX, whose partition holds
          three SSETs, is rejected here but runs under [Per_fu]
          unchanged.  A halt drives every member's sync signal to DONE,
          as under [Per_fu]; a bank that falls off the end reports the
          hazard against its leader.  The two banks form one SSET while
          their next PCs are equal (lock-step mode). *)

val model_name : model -> string
(** ["xsim"], ["vsim"] and ["t500"]: the one spelling of the models'
    names, shared by the job spec, the farm's records and the fuzzer. *)

val model_of_name : string -> model option
(** Inverse of {!model_name}. *)

val n_streams : model -> n:int -> int
(** Number of fixed sequencers on an [n]-FU machine: [n], [1] and [2]
    respectively.  {!step} does not use it (its groups form every
    cycle); it is kept only for [bench/ledger/layers.ml], whose phase
    probes restate the step through it, until that breakdown moves into
    the engine (ROADMAP item 1). *)

val stream_bounds : model -> n:int -> int -> int * int
(** [stream_bounds model ~n k] is the contiguous FU range
    [(leader, last)] of fixed sequencer [k].  Kept only for
    [bench/ledger/layers.ml], like {!n_streams}. *)

val bank_consistent : Program.t -> bool
(** Whether every row's parcels agree with their bank leader's control
    fields and sync signal — the structural restriction the [Banked]
    model requires: [Program.consistent_banks p ~split:(n_fus p / 2)]. *)

val step : model -> State.t -> unit
(** Executes one cycle under the given sequencing model (a no-op if all
    FUs have halted).  It checks none of the model's structural
    requirements: {!Session.run} does that once per run. *)
