(** 32-bit machine values.

    The XIMD-1 research model supports two data types, 32-bit integers and
    32-bit floats (paper §2.2).  Registers and memory words are untyped
    32-bit containers; the operation executed decides the interpretation.
    A value is therefore represented as a raw 32-bit pattern, with integer
    and float views.  Float conversions round through IEEE-754 single
    precision so that bit-level behaviour matches a real 32-bit datapath.

    A value is an immediate [int] holding the pattern sign-extended to
    the native width, so registers, memory words and ALU results are
    never boxed.  This needs 63-bit native ints; the module refuses to
    load on a narrower platform. *)

type t = private int
(** A 32-bit bit pattern, sign-extended: bits 31 and up are equal.  The
    coercion [(v :> int)] is the signed-integer view, like {!to_int}. *)

val zero : t
val one : t

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_int : int -> t
(** Truncates to 32 bits (two's complement). *)

val to_int : t -> int
(** Sign-extending view of the 32-bit pattern as an OCaml [int]. *)

val of_float : float -> t
(** Rounds to IEEE-754 single precision and stores the bit pattern. *)

val to_float : t -> float
(** Reinterprets the bit pattern as an IEEE-754 single-precision float. *)

val truth : bool -> t
(** [truth b] is [one] if [b] else [zero]. *)

val is_true : t -> bool
(** [is_true v] is [true] iff [v] is non-zero. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints the signed-integer view. *)

val pp_hex : Format.formatter -> t -> unit
val pp_float : Format.formatter -> t -> unit
val to_string : t -> string
