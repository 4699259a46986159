(** Global multi-ported register file.

    "The register file simultaneously supports two reads and one write
    per functional unit for a total of 16 reads and 8 writes per cycle"
    (paper §2.2).  The 2R/1W-per-FU port budget is guaranteed
    structurally by the parcel shapes ({!Ximd_isa.Parcel.reads} ≤ 2,
    {!Ximd_isa.Parcel.writes} ≤ 1).

    This module holds the register values and nothing else.  Reads
    observe start-of-cycle values because no write lands during a
    cycle: the engine queues every register and memory result and
    commits the due ones at the end of their cycle, where it also
    detects the one genuinely undefined case, two writes to one
    register in one cycle (the highest-numbered FU's value wins, the
    latest write on ties; the hazard is logged either way). *)

open Ximd_isa

type t

val create : unit -> t
(** All registers initialised to zero. *)

val read : t -> Reg.t -> Value.t
(** The register's current (start-of-cycle) value. *)

val values : t -> Value.t array
(** The register values themselves, indexed by register number: the
    array {!read} reads, shared, not copied, so the engine's executor
    reads operands, and its write-back lands results, without a call
    per register.  Everything else writes through {!set}. *)

val reset : t -> unit
(** Rewinds to the {!create} state, all registers zero, without
    reallocating the backing array (for state reuse across runs). *)

val set : t -> Reg.t -> Value.t -> unit
(** Direct write.  For initialisation and tests. *)

val dump : t -> Value.t array
(** A snapshot of all registers, index = register number. *)
