(** The reference interpreter.

    A deliberately slow, straight-line implementation of the XIMD cycle
    semantics, written to be read against PAPER.md and DESIGN.md rather
    than to be fast.  Its single job is to be obviously correct, so that
    the optimised {!Ximd_core.Engine} can be judged against it in
    lockstep ({!Ximd_gen.Diff}) on any program the engine accepts.

    Hazards are always recorded, never raised.  Faults, scripted I/O
    input, watchdogs and observability are out of scope: the conformance
    surface is a plain program run on a plain machine. *)

open Ximd_isa

type model = Per_fu | Global | Banked
(** The three sequencing models: one sequencer per FU (XIMD, xsim), one
    global sequencer (VLIW, vsim), two fixed banks (TRACE-500-like,
    t500).  Kept separate from {!Ximd_core.Engine.model} so the
    reference shares no definitions with the engine under test. *)

type machine
(** A machine mid-run; exposed only so {!run}'s [setup] callback can
    preload state for unit tests. *)

val set_reg : machine -> int -> Value.t -> unit
val set_mem : machine -> int -> Value.t -> unit

val consistent : model -> Ximd_core.Program.t -> bool
(** Restated from first principles, parcel by parcel, never from the
    decoded image the engine's checks read: every parcel shares its
    sequencer's control and sync fields (FU 0's under [Global], its
    bank leader's under [Banked]; always under [Per_fu]). *)

val validate : model -> Ximd_core.Program.t -> Ximd_core.Config.t -> unit
(** @raise Invalid_argument under exactly the conditions the engine's
    [run] rejects: invalid program, non-control-consistent program under
    [Global], odd FU count or non-bank-consistent program under
    [Banked]. *)

val run :
  ?model:model ->
  ?config:Ximd_core.Config.t ->
  ?setup:(machine -> unit) ->
  Ximd_core.Program.t ->
  Observation.t
(** [run program] interprets [program] to completion (halt or fuel
    exhaustion) and returns everything architecturally observable, with
    each cycle's SSETs in its trace row, formed by the interpreter's own
    statement of the DESIGN.md §5 rule, and the paper's run counters
    ({!Observation.counts}), counted one sequencer at a time.
    [model] defaults to [Per_fu]; [config] to {!Ximd_core.Config.default}
    (its hazard policy is ignored — the reference always records);
    [setup] runs once on the fresh machine before cycle 0. *)
