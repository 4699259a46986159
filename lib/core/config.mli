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

val prototype : unit -> t
(** The §4.3 hardware-prototype configuration: 8 FUs, distributed
    memory, the traditional sequencer, and the 3-stage pipelined
    datapath. *)

(** {1 Machine-shape keys}

    The six keys that set a machine's shape, one vocabulary for
    [ximd-job/1] specs, [; conf:] lines and fuzz reports, with values as
    a job spec writes them:

    - [max_cycles] (positive integer): the cycle fuel;
    - [latency] (positive integer, at most 8): the result latency;
    - [mem_words] (positive integer): the memory size;
    - [ports] (positive integer): the number of I/O ports;
    - [distributed] (boolean): one memory bank per FU, not one shared;
    - [sequencer] (["research"] or ["prototype"]). *)

type setting
(** One shape key with a checked value.  It holds a function, so compare
    settings by {!key_value}. *)

val shape_keys : string list
(** The six keys, in the order {!pp} prints them. *)

val read :
  (string * Ximd_json.t) list -> (setting list, string * string) result
(** The shape keys among [(key, value)] pairs, in their order; pairs with
    other keys are skipped.  The first bad value is [Error (key,
    message)], the message naming the key: [key "latency": expected an
    integer], [key "ports": must be positive (got 0)].  Ranges that
    depend on the whole machine, such as [latency] 99, are {!apply}'s to
    refuse. *)

val apply : setting list -> t -> (t, string) result
(** The settings over a base configuration, a later one winning, then
    checked as {!make} checks them: [Error] carries {!make}'s message.
    [distributed] splits memory among the base's FUs. *)

val key_value : setting -> string * Ximd_json.t
(** The setting as its key and value. *)

val pp : Format.formatter -> t -> unit
(** The configuration's six shape keys on one line as [key=value]
    tokens, names bare and other values as JSON writes them:
    [max_cycles=2000 latency=1 mem_words=65536 ports=16 distributed=false
    sequencer=research].  This is the body of a [; conf:] line. *)
