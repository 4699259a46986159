(** Register allocation: one physical register per virtual register,
    in first-use order with parameters first.  Correct across arbitrary
    control flow (values live across blocks keep their home), at the
    cost of pressure; XIMD-1's 256 global registers make this practical
    for the kernels this compiler targets.  The software pipeliner
    ({!Kernelgen}) renames its loop's registers itself. *)

open Ximd_isa

type assignment = {
  reg_of : Ir.vreg -> Reg.t;
  used : int;  (** number of distinct physical registers *)
}

val trivial : ?reg_base:int -> Ir.func -> (assignment, string) result
(** One register per vreg, allocated from [reg_base] (default 0) — the
    base lets several independently compiled threads share the global
    register file without colliding.  Fails if the function would run
    past register 255. *)
