(** Register names.

    The XIMD-1 global register file holds 256 registers (paper §4.3 and
    §4.4: the custom register-file chip "contains 256 global registers").
    All functional units address the same global file. *)

type t = private int

val count : int
(** Number of architectural registers (256). *)

val make : int -> t
(** [make i] is register [i].
    @raise Invalid_argument if [i] is outside [0, count). *)

val index : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val of_string : string -> t option
(** Parses ["r12"] (case-insensitive) into register 12. *)

val to_string : t -> string
