(** Instruction parcels.

    "The set of instruction fields which control each FU.  This includes
    the fields for the control path, data path, and synchronization
    signals for each FU.  Each instruction parcel is independent."
    (paper §2.4).  A parcel bundles one data operation, one control
    operation, and the synchronisation signal value to drive. *)

type data =
  | Dnop
  | Dbin of { op : Opcode.binop; a : Operand.t; b : Operand.t; d : Reg.t }
      (** [d := a op b] *)
  | Dun of { op : Opcode.unop; a : Operand.t; d : Reg.t }
      (** [d := op a] *)
  | Dcmp of { op : Opcode.cmpop; a : Operand.t; b : Operand.t }
      (** [CC_i := a op b] — sets the executing FU's own condition code *)
  | Dload of { a : Operand.t; b : Operand.t; d : Reg.t }
      (** [M(a + b) -> d] *)
  | Dstore of { a : Operand.t; b : Operand.t }
      (** [a -> M(b)] *)
  | Din of { port : Operand.t; d : Reg.t }
      (** read I/O port: [d := port value, or 0 if not ready] (Figure 12
          semantics: processes poll "until the port returns a non-zero,
          valid value") *)
  | Dout of { a : Operand.t; port : Operand.t }
      (** write [a] to I/O port *)

type t = {
  data : data;
  control : Control.t;
  sync : Sync.t;
}

val make : ?sync:Sync.t -> data -> Control.t -> t
(** [make data control] builds a parcel; [sync] defaults to [Busy]. *)

val nop : Control.t -> t
(** A parcel performing no data operation. *)

val halted : t
(** The parcel "executed" by an FU that has halted: nop data op, [Halt]
    control, [Done] sync signal (a finished stream reads as DONE so that
    barriers over supersets of live FUs still complete). *)

val reads : data -> Reg.t list
(** Registers read by the data operation (for port accounting and the
    compiler's dependence analysis).  At most two. *)

val writes : data -> Reg.t option
(** Register written, if any.  At most one. *)

val sets_cc : data -> bool
val is_nop : data -> bool
val is_memory : data -> bool

val equal : t -> t -> bool
val pp_data : Format.formatter -> data -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
