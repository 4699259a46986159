(** Arithmetic and logic evaluation.

    One data operator per functional unit; "all data operations complete
    in one cycle.  Two data types are supported, 32-bit float and 32-bit
    integer" (paper §2.2).

    Integer semantics: 32-bit two's complement with wraparound; shift
    amounts are taken modulo 32 (only the low five bits of [b] are
    significant); division rounds toward zero.  Division or modulus by
    zero is a fault — the caller reports {!Hazard.Div_by_zero} and the
    documented recovery result is zero.

    Float semantics: operands are reinterpreted as IEEE-754 single
    precision, the operation is computed, and the result is rounded back
    to single precision, matching a 32-bit hardware datapath.  Float
    compares use [Float.compare]'s order (NaN equals NaN and sorts
    first).

    Operands and results are {!Ximd_isa.Value.t}s, immediate ints, and
    the float views never leave this module, so no evaluation
    allocates except a fault. *)

open Ximd_isa

type fault = Division_by_zero

exception Fault of fault

val eval_bin :
  Opcode.binop -> Value.t -> Value.t -> (Value.t, fault) result

val eval_bin_exn : Opcode.binop -> Value.t -> Value.t -> Value.t
(** Like {!eval_bin} but raises {!Fault} on a fault, so the non-faulting
    path (the simulator hot loop) allocates no [result]. *)

val eval_un : Opcode.unop -> Value.t -> Value.t

val eval_cmp : Opcode.cmpop -> Value.t -> Value.t -> bool
