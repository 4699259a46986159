(** Processor memory.

    The research model assumes an idealised shared memory: "Each
    functional unit can read or write to memory every cycle.  All ports
    use a single shared address space.  Memory operations complete in one
    cycle.  Multiple writes to the same location in one cycle are
    undefined." (paper §2.3).  Addresses are 32-bit-word indices.

    Two organisations are provided:
    - {!shared}: the research model — any FU reaches any word.
    - {!distributed}: the hardware prototype's organisation (§4.3,
      "Distributed Memory (1MB per FU)") — the address space is divided
      into equal per-FU banks and an FU may only access its own bank;
      foreign accesses are out-of-bounds hazards.

    Reads observe start-of-cycle contents because no store lands during
    a cycle: the engine queues every store with the register results and
    lands the due ones at the end of their cycle through {!set}, after
    the same multiple-write resolution as registers.  An access that is
    not {!accessible} reports a hazard; under the [Record] policy a
    failing read returns zero and a failing store is dropped. *)

open Ximd_isa

type organisation =
  | Shared
  | Distributed of { n_fus : int }

type t

val create : ?organisation:organisation -> words:int -> unit -> t
(** [words] is the total number of 32-bit words. *)

val words : t -> int
val organisation : t -> organisation

val accessible : t -> fu:int -> int -> bool
(** [accessible t ~fu addr]: [addr] is in range and, under the
    distributed organisation, in [fu]'s bank.  An accessible address
    never makes {!set} or {!get} raise. *)

val read : t -> fu:int -> cycle:int -> log:Hazard.log -> int -> Value.t
(** [read t ~fu ~cycle ~log addr]: the word, or zero after reporting
    {!Hazard.Mem_out_of_bounds} if [addr] is not {!accessible}. *)

val reset : t -> unit
(** Rewinds to the {!create} state, all words zero.  Pages already
    allocated are zeroed in place rather than freed, so a reused state
    keeps its working-set arenas warm. *)

val set : t -> int -> Value.t -> unit
(** Direct write: initialisation, and a store that passed {!accessible}
    landing.  Bounds-checked, raises [Invalid_argument]. *)

val get : t -> int -> Value.t
(** Direct read for result checking; raises [Invalid_argument]. *)

val dump_block : t -> addr:int -> len:int -> Value.t array
