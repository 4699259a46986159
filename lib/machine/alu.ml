open Ximd_isa

type fault = Division_by_zero

exception Fault of fault

(* Operands are {!Value.t}s, native ints holding sign-extended 32-bit
   patterns, so integer operations compute on the ints and
   [Value.of_int] wraps the result back to 32 bits.  The float views
   stay inside this module: returned from a function in another module
   (built without cross-module inlining), a float is boxed. *)

let[@inline] to_float (v : Value.t) =
  Int32.float_of_bits (Int32.of_int (v :> int))

let[@inline] of_float f = Value.of_int (Int32.to_int (Int32.bits_of_float f))

let eval_bin_exn (op : Opcode.binop) (a : Value.t) (b : Value.t) =
  let x = (a :> int) and y = (b :> int) in
  match op with
  | Iadd -> Value.of_int (x + y)
  | Isub -> Value.of_int (x - y)
  | Imult -> Value.of_int (x * y)
  | Idiv ->
    if y = 0 then raise (Fault Division_by_zero) else Value.of_int (x / y)
  | Imod ->
    if y = 0 then raise (Fault Division_by_zero) else Value.of_int (x mod y)
  | And -> Value.of_int (x land y)
  | Or -> Value.of_int (x lor y)
  | Xor -> Value.of_int (x lxor y)
  | Shl -> Value.of_int (x lsl (y land 31))
  | Shr -> Value.of_int ((x land 0xffff_ffff) lsr (y land 31))
  | Sar -> Value.of_int (x asr (y land 31))
  | Fadd -> of_float (to_float a +. to_float b)
  | Fsub -> of_float (to_float a -. to_float b)
  | Fmult -> of_float (to_float a *. to_float b)
  | Fdiv -> of_float (to_float a /. to_float b)

let eval_bin op a b =
  match eval_bin_exn op a b with
  | v -> Ok v
  | exception Fault f -> Error f

let eval_un (op : Opcode.unop) (a : Value.t) =
  match op with
  | Mov -> a
  | Ineg -> Value.of_int (-(a :> int))
  | Not -> Value.of_int (lnot (a :> int))
  | Fneg -> of_float (-.to_float a)
  | Itof -> of_float (float_of_int (a :> int))
  | Ftoi -> Value.of_int (Int32.to_int (Int32.of_float (to_float a)))

(* Float comparisons keep [Float.compare]'s total order, in which NaN
   equals itself and sorts below every other float. *)
let eval_cmp (op : Opcode.cmpop) (a : Value.t) (b : Value.t) =
  let x = (a :> int) and y = (b :> int) in
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Feq -> Float.compare (to_float a) (to_float b) = 0
  | Fne -> Float.compare (to_float a) (to_float b) <> 0
  | Flt -> Float.compare (to_float a) (to_float b) < 0
  | Fle -> Float.compare (to_float a) (to_float b) <= 0
  | Fgt -> Float.compare (to_float a) (to_float b) > 0
  | Fge -> Float.compare (to_float a) (to_float b) >= 0
