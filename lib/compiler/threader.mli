(** Thread materialisation — the executable end of the §4.2 pipeline.

    The paper's proposed compilation approach (Figure 13) stops at
    placing tiles in instruction memory.  This module carries it through
    to a runnable multi-stream XIMD program:

    + each thread (an IR function) is compiled at a chosen width with a
      private register range;
    + threads are grouped into {e levels} — topological strata of the
      dependence DAG; within a level threads run concurrently on
      disjoint FU columns, each as its own SSET;
    + between levels the program synchronises with a full barrier built
      from the synchronisation signals, exactly as the paper's
      BITCOUNT1 does (an FU drives BUSY while executing its thread and
      DONE while waiting);
    + values flow between threads through the shared global register
      file: a {!wire} binds a consumer thread's parameter register to a
      producer thread's result register, implemented as glue moves in
      the consumer's entry (the producer must sit in an earlier level,
      which the wire-implied dependence guarantees).

    Relocation details handled here: branch targets shift with the code
    placement, condition-code references shift with the FU-column
    assignment, and each thread's [Return] becomes a branch to its
    level's barrier. *)

type wire = {
  from_thread : string;
  from_result : int;   (** index into the producer's [results] *)
  to_thread : string;
  to_param : int;      (** index into the consumer's [params] *)
}

type placement = {
  thread : string;
  level : int;
  columns : int * int;        (** first column, width *)
  entry : int;                (** code address of the thread's entry *)
  param_regs : (Ir.vreg * Ximd_isa.Reg.t) list;
  result_regs : (Ir.vreg * Ximd_isa.Reg.t) list;
}

type t = {
  program : Ximd_core.Program.t;
  n_fus : int;
  placements : placement list;
  levels : string list list;  (** thread names per level *)
  wires : wire list;
}

val levels :
  string list -> (string * string) list -> (string list list, string) result
(** [levels names deps] groups [names] into the topological strata of
    the (before, after) dependence pairs [deps]: a thread's level is the
    longest dependence path that reaches it, and each level lists its
    threads in [names] order.  Concatenated, the levels are the thread
    order {!Packing.pack_time} places in.  Errors on a cycle. *)

val build :
  ?n_fus:int ->
  ?widths:(string * int) list ->
  threads:Ir.func list ->
  deps:(string * string) list ->
  wires:wire list ->
  unit ->
  (t, string list) result
(** [widths] picks a compilation width per thread (default: the widest
    power of two that fits the level's column budget, at most 4).
    Errors: unknown thread names, cyclic dependences, a level's total
    width exceeding [n_fus] (default 8), wires not crossing levels
    forward, or register-file exhaustion. *)

val run :
  ?config:Ximd_core.Config.t ->
  t ->
  args:(string * Ximd_isa.Value.t list) list ->
  (Ximd_core.Run.outcome * Ximd_core.State.t, string) result
(** Runs the program on a fresh {!Ximd_core.Session} under
    [Engine.Per_fu], with each thread's arguments installed in its
    parameter registers (wired parameters may be omitted — they are
    overwritten by glue moves anyway). *)

val results : t -> Ximd_core.State.t -> (string * Ximd_isa.Value.t list) list
(** Final values of every thread's result registers. *)

val reference :
  t ->
  threads:Ir.func list ->
  args:(string * Ximd_isa.Value.t list) list ->
  ((string * Ximd_isa.Value.t list) list, string) result
(** Oracle: interpret the threads level by level, feeding wires, using
    {!Interp}.  Memory-free threads only (the harness for checking
    {!run}). *)
