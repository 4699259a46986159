(* The sign-extended 32-bit pattern, held in a native int: bits 31..62
   all equal bit 31.  Every constructor below normalises, so equality,
   ordering and printing are those of the int. *)
type t = int

let () =
  if Sys.int_size < 63 then failwith "Value: needs 63-bit native ints"

let zero = 0
let one = 1
let[@inline] of_int n = (n lsl 31) asr 31
let to_int v = v
let of_int32 v = Int32.to_int v
let to_int32 v = Int32.of_int v
let of_float f = Int32.to_int (Int32.bits_of_float f)
let to_float v = Int32.float_of_bits (Int32.of_int v)
let truth b = if b then one else zero
let is_true v = v <> 0
let equal = Int.equal
let pp fmt v = Format.fprintf fmt "%d" v
let pp_hex fmt v = Format.fprintf fmt "0x%08x" (v land 0xffff_ffff)
let pp_float fmt v = Format.fprintf fmt "%h" (to_float v)
let to_string v = string_of_int v
