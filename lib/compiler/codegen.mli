(** Code generation: scheduled IR to XIMD programs.

    Each block's body is list-scheduled at the requested width and
    emitted as instruction rows with VLIW-style duplicated control (an
    unconditional branch to the next row, except the block's final row
    which carries the terminator).  Because a branch reads condition
    codes written in {e earlier} cycles, the compare feeding a block's
    conditional terminator must land at least one row before the branch
    row; when the schedule packs it into the final row, a padding row is
    inserted.  The condition-code index encoded in the branch is the FU
    slot the compare was assigned to.

    The generated program is control-consistent, so it runs identically
    under the VLIW model ([Engine.Global]) and (as a single-SSET
    program) under the XIMD model ([Engine.Per_fu]) — the paper's "VLIW-style program can then execute
    just as efficiently on the XIMD as on a VLIW machine" (§3.1). *)

open Ximd_isa

type compiled = {
  program : Ximd_core.Program.t;
  width : int;
  param_regs : (Ir.vreg * Reg.t) list;
  result_regs : (Ir.vreg * Reg.t) list;
  static_rows : int;   (** program length, the tile "length" of §4.2 *)
  used_regs : int;
}

val compile :
  ?width:int -> ?latency:int -> ?reg_base:int -> ?obs:Schedobs.t ->
  Ir.func ->
  (compiled, string list) result
(** [width] defaults to 8 and must be within [1, n_fus] of the intended
    configuration; the emitted program has exactly [width] FU columns.
    [reg_base] offsets register allocation so independently compiled
    threads can share the global register file ({!Threader}).
    [latency] (default 1) schedules for a machine whose datapath results
    take that many cycles to become visible — pass the configuration's
    [result_latency] when targeting the §4.3 pipelined prototype; the
    control path (compare-to-branch distance) stays single-cycle either
    way.  [obs] records pass timings, per-block placement provenance,
    and — for every single-block while-loop body ({!loop_bodies}) —
    modulo-scheduling bound accounting via {!Pipeliner}. *)

val data_of_op : (Ir.vreg -> Reg.t) -> Ir.op -> Parcel.data
(** Lower one IR operation to a parcel data operation. *)

val emit_block :
  ?latency:int -> ?obs:Schedobs.t ->
  Ximd_asm.Builder.t -> (Ir.vreg -> Reg.t) -> width:int -> Ir.block -> unit
(** Schedule and emit one block into an existing builder (labels the
    block with its IR label).  Used by the trace scheduler for off-trace
    blocks. *)

val block_rows : ?latency:int -> width:int -> Ir.block -> int
(** Rows {!emit_block} would emit for the block (schedule length plus
    any terminator padding) without emitting anything. *)

val loop_bodies : Ir.func -> Ir.block list
(** The non-empty single-block while-loop bodies of [func]: blocks
    whose terminator jumps to a head whose conditional branch re-enters
    them — the shape {!Pipeliner} analyses. *)
