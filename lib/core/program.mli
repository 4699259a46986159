(** Loaded XIMD programs.

    A program is a matrix of instruction parcels: "Each row of boxes
    represents the instruction parcels stored at one instruction address"
    (paper Figure 9), one column per functional unit.  "Note that
    although instruction parcels for different functional units appear at
    the same address, each functional unit has a separate sequencer and
    thus they might not execute from the same physical address at the
    same time."

    A symbol table maps label names to addresses for tracing and
    disassembly. *)

open Ximd_isa

type t

val make :
  ?symbols:(string * int) list -> n_fus:int -> Parcel.t array array -> t
(** [make ~n_fus rows] builds a program.  Each row must have exactly
    [n_fus] parcels.
    @raise Invalid_argument on a ragged matrix or empty program. *)

val of_rows : ?symbols:(string * int) list -> n_fus:int -> Parcel.t list list -> t

val n_fus : t -> int
val length : t -> int
(** Number of instruction addresses. *)

val fetch : t -> fu:int -> addr:int -> Parcel.t option
(** [None] if [addr] is outside the program. *)

val row : t -> int -> Parcel.t array
(** @raise Invalid_argument if out of range. *)

(** {2 The decoded image}

    Everything a cycle needs from a program, decoded once.  The paper's
    parcel is a fixed-format word whose control field already holds
    both absolute branch targets, so nothing a cycle does depends on
    more than the parcel itself and the address it sits at.  The image
    is flat arrays, one entry per {e slot}: slot [addr * n + fu] of an
    [n]-FU program holds FU [fu]'s parcel at [addr], and one halt row
    past the end (address {!length}) holds {!Ximd_isa.Parcel.halted}
    for every FU, so a sequencer that left the program fetches from it.
    Every reader on the run path reads the image; only the lowering
    that builds it matches on parcels. *)

type op =
  | Nop
  | Bin of Opcode.binop
  | Un of Opcode.unop
  | Cmp of Opcode.cmpop
  | Load   (** [M(a + b) -> dest] *)
  | Store  (** [a -> M(b)] *)
  | In     (** port [a] [-> dest] *)
  | Out    (** [a ->] port [b] *)
(** A slot's data operation: its kind and opcode. *)

type image = private {
  op : op array;
  is_float : bool array;
      (** the operation reads its operands as floats (the statistics'
          MFLOPS/MIPS split) *)
  a_reg : int array;
      (** operand [a]'s register index, or -1 when it is the immediate
          [a_imm] (also -1, with [a_imm] zero, when the operation has no
          such operand) *)
  a_imm : Value.t array;
  b_reg : int array;  (** operand [b], as [a_reg] *)
  b_imm : Value.t array;
  dest : Reg.t array;
      (** the destination register; [r0] when the operation has none *)
  t1 : int array;
      (** the next PC when the condition holds: [Fallthrough] resolved
          to [addr + 1], -1 for [Halt], and an unconditional branch's
          destination in both [t1] and [t2] *)
  t2 : int array;  (** the next PC when the condition fails *)
  cond : Cond.t array;  (** the branch condition ([Always1] for [Halt]) *)
  conditional : bool array;
      (** the outcome depends on run-time state: false for [Halt],
          [Always1] and [Always2] *)
  sync : Sync.t array;  (** the sync value the parcel drives *)
  classes : int array;
      (** the control-class table: the lowest FU whose control field at
          the slot's address is {!Ximd_isa.Control.equal} to this one's,
          so two FUs at one address have equal control fields exactly
          when their entries are equal.  {!Engine} groups per-FU
          sequencers by it. *)
}
(** The arrays are shared, not copied: read them, never write them. *)

val same_signature : image -> int -> int -> bool
(** [same_signature img a b]: whether the control operations in slots
    [a] and [b] have equal {!Ximd_isa.Control.normalised_signature}s,
    each normalised at its own address, computed from the resolved
    targets without allocating: the engine's per-cycle SSET test. *)

val image : t -> image
(** The program's image, built on its first run and kept with it
    (safely shared by domains), so {!make} costs no more than before
    and a program that never runs never decodes. *)

val symbols : t -> (string * int) list
val address_of : t -> string -> int option
val label_at : t -> int -> string option

val validate : t -> Config.t -> (unit, string list) result
(** Static checks: branch targets within the encodable range, condition
    FU indices and masks within [n_fus], fall-through targets only under
    the [Prototype] sequencer, and the program column count matching the
    configuration.  A valid program validates without allocating. *)

val consistent_banks : t -> split:int -> bool
(** Whether at every address each FU below [split] has FU 0's control
    field and sync value, and every other FU FU [split]'s, read from
    the image's class table and sync array without allocating. *)

val control_consistent : t -> bool
(** True if every row's parcels share identical control fields and sync
    signals — the VLIW coding convention ("the control path instruction
    fields must be duplicated in each instruction parcel", §3.1).
    {!Session.run} rejects a program that is not control-consistent
    under the global sequencer ([Engine.Global]). *)

val encode : t -> bytes
(** Bit-level program image: a 16-byte header (magic "XIMD", version,
    n_fus, row count) followed by row-major 192-bit parcels. *)

val decode : bytes -> (t, string) result
(** Inverse of {!encode}.  Symbol tables are not part of the image. *)

val pp_listing : Format.formatter -> t -> unit
(** Paper-style listing: one block per address, one column per FU, with
    the control operation above the data operation (Figure 9 layout). *)

val equal_code : t -> t -> bool
(** Structural equality of the parcel matrix (ignores symbols). *)
