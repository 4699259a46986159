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
    just as efficiently on the XIMD as on a VLIW machine" (§3.1).

    A compiled function's calling convention lives here too: argument
    [i] is the [i]-th of [param_regs] and result [i] the [i]-th of
    [result_regs].  {!bind_args} and {!results} are the one place that
    maps values onto those registers, for [xcc --run], the examples,
    the ablations and the tests alike. *)

open Ximd_isa

type compiled = {
  program : Ximd_core.Program.t;
  width : int;
  param_regs : (Ir.vreg * Reg.t) list;
  result_regs : (Ir.vreg * Reg.t) list;
  static_rows : int;   (** program length, the tile "length" of §4.2 *)
  used_regs : int;
}

val bind_args :
  compiled -> Value.t list -> (Ximd_core.State.t -> unit, string) result
(** The setup that writes [args], in order, into the function's
    parameter registers — pass it to {!Ximd_core.Session.run}.
    [Error "expected N arguments, got M"] when [args] has a different
    length from the parameter list. *)

val results : compiled -> Ximd_core.State.t -> Value.t list
(** The function's result registers, in order, read from [state]. *)

val check_width : int -> (unit, string) result
(** The width check every compile entry point ({!compile},
    {!Tracesched.compile}, {!Kernelgen.compile}) applies first: a
    program has 1 to 16 FU columns. *)

val compile :
  ?width:int -> ?latency:int -> ?reg_base:int -> ?obs:Schedobs.t ->
  Ir.func ->
  (compiled, string list) result
(** [width] defaults to 8 and must be within [1, n_fus] of the intended
    configuration ({!check_width}); the emitted program has exactly
    [width] FU columns.
    [reg_base] offsets register allocation so independently compiled
    threads can share the global register file ({!Threader}).
    [latency] (default 1) schedules for a machine whose datapath results
    take that many cycles to become visible — pass the configuration's
    [result_latency] when targeting the §4.3 pipelined prototype; the
    control path (compare-to-branch distance) stays single-cycle either
    way.  [obs] records pass timings, per-block placement provenance,
    and — for every single-block while-loop body ({!loop_bodies}) —
    modulo-scheduling bound accounting via {!Pipeliner}. *)

val drive :
  ?reg_base:int -> ?obs:Schedobs.t -> width:int -> Ir.func ->
  (Ximd_asm.Builder.t -> (Ir.vreg -> Reg.t) -> ('a, string list) result) ->
  (compiled * 'a, string list) result
(** The compile driver {!compile} and {!Tracesched.compile} share:
    {!check_width}, then {!Ir.validate} and {!Regalloc.trivial} (the
    ["validate"] and ["regalloc"] passes of [obs]), then [emit] fills a
    fresh [width]-column builder with the function's code; the result
    pairs the built program with what [emit] returned. *)

val data_of_op :
  use:(Ir.vreg -> Reg.t) -> def:(Ir.vreg -> Reg.t) -> Ir.op -> Parcel.data
(** Lower one IR operation to a parcel data operation: source registers
    through [use], the destination through [def].  Block code passes one
    register map for both; the software pipeliner ({!Kernelgen}) renames
    the two apart. *)

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
