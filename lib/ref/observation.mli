(** The architecturally observable result of a run: what the reference
    interpreter and the optimised engine must agree on, byte for byte. *)

open Ximd_isa

type row = {
  cycle : int;
  pcs : int option array;  (** per FU; [None] = halted at top of cycle *)
  ccs : bool option array;
  sss : Sync.t array;
  ssets : int list list;
      (** the partition in effect at the top of the cycle: SSETs with
          members ascending, ordered by lowest member *)
}

type counts = {
  cycles : int;  (** drain cycles included *)
  data_ops : int;  (** non-nop data operations issued *)
  nops : int;  (** nop data operations issued *)
  halted_slots : int;  (** FU-cycles in which the FU did not issue *)
  spin_slots : int;
      (** FU-cycles in which a conditional branch re-selected the
          current address: one per issuing member of the spinning
          stream *)
  cond_branches : int;
      (** conditional control operations executed, one per sequencer *)
  max_streams : int;
      (** the most SSETs holding a live FU after any cycle (at least 1
          once the global sequencer has run a cycle) *)
}
(** The paper's run counters, the ones {!Ximd_core.Stats} keeps. *)

type t = {
  outcome : Ximd_core.Run.outcome;
  registers : Value.t array;  (** all 256, final *)
  memory : (int * Value.t) list;  (** non-zero words, ascending address *)
  io_out : (int * (int * Value.t) list) list;
      (** port -> (cycle, value) write log, ports with output only *)
  hazards : (int * string) list;  (** (cycle, rendered hazard), in order *)
  trace : row list;  (** one row per executed cycle, oldest first *)
  counts : counts;
}

val outcome_string : Ximd_core.Run.outcome -> string
val row_equal : row -> row -> bool

val counts_diff : counts -> counts -> (string * int * int) option
(** The first counter two runs disagree on, as [(name, a, b)]. *)

val equal : t -> t -> bool
val pp_row : Format.formatter -> row -> unit
(** One trace row, with the SSETs in the paper's notation
    ([ssets={0,1}{2}]). *)

val summary : t -> string
(** Byte-stable plain-text summary (without the trace and the counts):
    the sidecar format of the [suites/] conformance corpus. *)
