(** Simulation configuration.

    Defaults correspond to the XIMD-1 research model (paper §2.2–2.3):
    8 homogeneous functional units, idealised shared memory, and the
    research sequencer (two explicit branch targets, no incrementer).
    The [Prototype] sequencer models the hardware prototype's
    "traditional sequencer (incrementer + 1 explicit branch target)"
    (§4.3), which permits {!Ximd_isa.Control.Fallthrough} targets. *)

type sequencer =
  | Research   (** two explicit targets, no PC incrementer *)
  | Prototype  (** incrementer + explicit targets allowed *)

type t = {
  n_fus : int;
  mem_words : int;
  mem_organisation : Ximd_machine.Memory.organisation;
  n_ports : int;
  hazard_policy : Ximd_machine.Hazard.policy;
  max_cycles : int;
  sequencer : sequencer;
  result_latency : int;
      (** Cycles between an operation's issue and its register/memory
          result becoming architecturally visible.  1 is the research
          model ("all data operations complete in one cycle", §2.2);
          3 models the prototype's "3-stage Data Path Pipeline (Operand
          Fetch - Execute - Write Back)" (§4.3).  There is no hardware
          interlocking — code must schedule around the latency, exactly
          as the paper's exposed-pipeline philosophy demands.  The
          control path stays non-pipelined ("Non-pipelined Control
          Path", §4.3): condition codes, synchronisation signals and
          branches keep single-cycle visibility. *)
}

val default : t
(** 8 FUs, 65536 shared memory words, 16 ports, [Raise] hazards,
    1_000_000 cycle fuel, [Research] sequencer. *)

val make :
  ?n_fus:int ->
  ?mem_words:int ->
  ?mem_organisation:Ximd_machine.Memory.organisation ->
  ?n_ports:int ->
  ?hazard_policy:Ximd_machine.Hazard.policy ->
  ?max_cycles:int ->
  ?sequencer:sequencer ->
  ?result_latency:int ->
  unit ->
  t
(** @raise Invalid_argument if [n_fus] is outside [1, 16], sizes are
    non-positive, or [result_latency] is outside [1, 8]. *)

val validate : t -> t
(** The configuration itself when {!make} would accept its fields — for
    a configuration built by updating another one's fields.
    @raise Invalid_argument as {!make}, with the same messages. *)

val prototype : unit -> t
(** The §4.3 hardware-prototype configuration: 8 FUs, distributed
    memory, the traditional sequencer, and the 3-stage pipelined
    datapath. *)

val pp : Format.formatter -> t -> unit
