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

val control_classes : t -> int array
(** The control-class table: entry [addr * n + fu], for an [n]-FU program, is the lowest
    FU whose control field at [addr] is {!Ximd_isa.Control.equal} to
    [fu]'s, so two FUs at one address have equal control fields exactly
    when their entries are equal.  {!Engine} groups per-FU sequencers by
    it.  Built on first use and kept with the program (safely shared by
    domains), so {!make} stays as cheap as before. *)

val symbols : t -> (string * int) list
val address_of : t -> string -> int option
val label_at : t -> int -> string option

val validate : t -> Config.t -> (unit, string list) result
(** Static checks: branch targets within the encodable range, condition
    FU indices and masks within [n_fus], fall-through targets only under
    the [Prototype] sequencer, and the program column count matching the
    configuration. *)

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
