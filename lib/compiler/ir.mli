(** Compiler intermediate representation.

    A small three-address IR over virtual registers, shaped for the
    XIMD-1 target: register-to-register operations mirroring the ISA,
    explicit compares producing predicate registers, and blocks ending in
    explicit two-way branches (the research sequencer has no
    fall-through).  This is the input to the list scheduler, the
    restricted trace scheduler, the modulo-scheduling analysis and the
    tile generator — the from-scratch stand-in for the paper's
    GNU-C-based VLIW compiler (DESIGN.md §3).

    Virtual registers are plain integers.  Predicates (written by [Cmp],
    read only by [Branch] terminators) live in a separate namespace
    because they compile to per-FU condition codes, not registers. *)

type vreg = int
type pred = int

type operand =
  | V of vreg
  | C of int32          (** integer constant *)
  | Cf of float         (** single-precision float constant *)

type op =
  | Bin of Ximd_isa.Opcode.binop * operand * operand * vreg
  | Un of Ximd_isa.Opcode.unop * operand * vreg
  | Cmp of Ximd_isa.Opcode.cmpop * operand * operand * pred
  | Load of operand * operand * vreg    (** [M(a+b) -> d] *)
  | Store of operand * operand          (** [a -> M(b)] *)

type terminator =
  | Jump of string
  | Branch of pred * string * string    (** if pred then t1 else t2 *)
  | Return

type block = {
  label : string;
  body : op list;
  term : terminator;
}

type func = {
  name : string;
  params : vreg list;    (** live on entry, in order *)
  results : vreg list;   (** live at [Return] *)
  blocks : block list;   (** entry block first *)
}

val defs : op -> vreg option
val uses : op -> vreg list
val def_pred : op -> pred option

val is_mem : op -> bool
(** [Load] or [Store]. *)

val is_store : op -> bool

val validate : func -> (unit, string list) result
(** Checks: entry block exists and is first, branch targets defined,
    labels unique, every predicate used by a [Branch] is defined by a
    [Cmp] in the same block before the terminator, every vreg use is
    reachable by some def or parameter (conservative whole-function
    check), no duplicate block labels. *)

val successors : terminator -> string list
(** The labels a terminator may branch to, then-target first. *)

val block_named : func -> string -> block option

val pp_op : Format.formatter -> op -> unit
val pp_block : Format.formatter -> block -> unit
val pp_func : Format.formatter -> func -> unit
