(** Bit-level parcel encoding.

    The authors' concrete encoding lived in the unavailable xsim manual
    [Wolfe89]; this module defines this reproduction's own bit-level
    format (DESIGN.md §3).  Each parcel occupies exactly 192 bits (three
    64-bit words); an 8-FU instruction is therefore 1536 bits — a very
    long instruction word indeed.

    Layout (little-endian bit numbering within each word):

    Word 0 — data operation:
    - [0..2]    kind (0 nop, 1 binop, 2 unop, 3 cmp, 4 load, 5 store,
                6 in, 7 out)
    - [3..7]    opcode index within kind
    - [8]       operand A is immediate
    - [9]       operand B is immediate
    - [10..17]  operand A register index
    - [18..25]  operand B register index
    - [26..33]  destination register index

    Word 1 — immediates: [0..31] A immediate, [32..63] B immediate.

    Word 2 — control path and synchronisation:
    - [0]       control kind (0 halt, 1 branch)
    - [1..3]    condition kind (0 Always1, 1 Always2, 2 Cc, 3 Ss,
                4 All_ss, 5 Any_ss)
    - [4..7]    condition FU index
    - [8..23]   FU mask for All_ss/Any_ss
    - [24..39]  branch target 1 address
    - [40]      target 1 is fall-through (prototype sequencer)
    - [41..56]  branch target 2 address
    - [57]      target 2 is fall-through
    - [58]      synchronisation signal (1 = DONE)

    All spare bits must be zero; the decoder rejects non-canonical
    encodings so that [decode] ∘ [encode] = id and [encode] ∘ [decode] =
    id on valid words. *)

type words = { w0 : int64; w1 : int64; w2 : int64 }

val bits_per_parcel : int
(** 192. *)

val max_address : int
(** Largest encodable branch-target address (65535). *)

val encode : Parcel.t -> words
(** @raise Invalid_argument if a branch target exceeds {!max_address} or
    a mask/FU index exceeds the encodable range. *)

val decode : words -> (Parcel.t, string) result
(** Decodes a parcel, rejecting malformed or non-canonical words with a
    descriptive error. *)

val to_bytes : words -> bytes
(** 24 bytes, little-endian words in order w0, w1, w2. *)

val of_bytes : bytes -> (words, string) result
