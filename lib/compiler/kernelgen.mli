(** Software-pipelined loop code generation.

    Completes the {!Pipeliner}: takes a straight-line loop body, the
    modulo schedule, and emits a runnable pipelined loop — ramp
    (prologue), rotating kernel, and drain (epilogue) — with full
    modulo variable expansion (MVE): every loop-variant virtual register
    gets [u] physical copies, where [u] is the maximum register lifetime
    in initiation intervals, and each iteration's instances rename
    round-robin.  Loop-carried values chain through the copies, so an
    accumulator comes out correctly without special casing; the
    induction variable is just another carried register.

    Iteration/window geometry: iteration [j]'s instance of an op with
    stage [s] executes in window [j + s]; ramp windows [0..S-2] start
    the first [S-1] iterations, each kernel pass runs [u] windows
    (starting and retiring [u] iterations), and the drain windows finish
    the last [S-1] in-flight iterations.  Copy indices stay static
    because the trip-count contract fixes every window index modulo [u].

    {b Caller contract} (checked where possible, documented otherwise):
    the trip count [T] read from [trip_reg] at run time must satisfy
    [T >= min_trip] and [(T - (stages - 1)) mod u = 0].  The generated
    preamble computes the kernel pass count [K = (T - (S-1)) / u]
    at run time. *)

open Ximd_isa

type t = {
  program : Ximd_core.Program.t;
  width : int;
  ii : int;                 (** initiation interval of the schedule *)
  stages : int;
  unroll : int;             (** u — MVE degree *)
  min_trip : int;           (** smallest legal trip count *)
  trip_reg : Reg.t;         (** caller writes the trip count here *)
  live_in_regs : (Ir.vreg * Reg.t) list;
      (** where the caller places each live-in value: loop-invariant
          registers directly; carried registers' initial values go in
          the copy that iteration 0 reads *)
  live_out_regs : (Ir.vreg * Reg.t) list;
      (** where each requested live-out value lands after the drain *)
  kernel_rows : int;        (** rows per kernel pass, including any
                                control padding *)
}

val live_in : Ir.op array -> Ir.vreg list
(** Registers the body reads before (or without) defining: loop
    invariants plus carried values needing initialisation. *)

val compile :
  width:int ->
  live_out:Ir.vreg list ->
  Ir.op array ->
  (t, string) result
(** Modulo-schedules the body at [width] and emits the pipelined loop.
    Errors on a width {!Codegen.check_width} rejects, empty bodies,
    unschedulable bodies, or register-file exhaustion. *)

val rolled_reference : trip:Ir.vreg -> induction:Ir.vreg ->
  live_out:Ir.vreg list -> Ir.op array -> Ir.func
(** The equivalent rolled loop as an IR function (for the interpreter
    oracle): runs the body while [induction < trip].  The body must
    increment [induction] by 1 from 0 for the trip counts to agree. *)
