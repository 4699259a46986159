(** Global multi-ported register file.

    "The register file simultaneously supports two reads and one write
    per functional unit for a total of 16 reads and 8 writes per cycle"
    (paper §2.2).  The 2R/1W-per-FU port budget is guaranteed
    structurally by the parcel shapes ({!Ximd_isa.Parcel.reads} ≤ 2,
    {!Ximd_isa.Parcel.writes} ≤ 1), so this module only needs to enforce
    the end-of-cycle write semantics and detect the one genuinely
    undefined case: two FUs writing the same register in one cycle.

    Reads observe start-of-cycle values; writes are staged and committed
    by {!commit}.  On a multiple-write conflict under the [Record] policy
    the write of the highest-numbered FU wins (an arbitrary but
    deterministic resolution; the hazard is logged either way). *)

open Ximd_isa

type t

val create : unit -> t
(** All registers initialised to zero. *)

val copy : t -> t

val read : t -> Reg.t -> Value.t
(** Start-of-cycle value (staged writes are not visible). *)

val values : t -> Value.t array
(** The register values themselves, indexed by register number: the
    array {!read} reads, shared, not copied, so the engine's executor
    reads operands without a call per operand.  Read only: write
    through {!stage_write} and {!set}. *)

val stage_write : t -> fu:int -> Reg.t -> Value.t -> unit

val commit : t -> cycle:int -> log:Hazard.log -> unit
(** Applies all staged writes and clears the stage.  Reports
    {!Hazard.Multiple_reg_write} for every register written by more than
    one FU. *)

val staged_count : t -> int
(** Number of currently staged writes (for port-pressure statistics). *)

val reset : t -> unit
(** Rewinds to the {!create} state — all registers zero, the stage
    empty — without reallocating the backing arrays (for state reuse
    across runs, see {!Ximd_core.State.reset}). *)

val set : t -> Reg.t -> Value.t -> unit
(** Direct write, bypassing staging.  For initialisation and tests. *)

val dump : t -> Value.t array
(** A snapshot of all registers, index = register number. *)
