(** Seed-deterministic random-program generators, shared by the
    property tests and the differential fuzzer.

    Every generator derives all randomness from the state QCheck hands
    it, so {!generate} — which seeds that state from [(seed, index)] —
    yields the same value on every run. *)

open Ximd_isa

val generate : ?seed:int -> index:int -> 'a QCheck2.Gen.t -> 'a
(** [generate ~seed ~index g] is the deterministic [index]-th draw of
    [g] under [seed] (default seed 0). *)

(** {1 ISA primitives} *)

val reg : Reg.t QCheck2.Gen.t
val operand : Operand.t QCheck2.Gen.t
val binop : Opcode.binop QCheck2.Gen.t
val unop : Opcode.unop QCheck2.Gen.t
val cmpop : Opcode.cmpop QCheck2.Gen.t
val data : Parcel.data QCheck2.Gen.t
val addr : int QCheck2.Gen.t
val target : Control.target QCheck2.Gen.t
val cond : Cond.t QCheck2.Gen.t
val control : Control.t QCheck2.Gen.t
val sync : Sync.t QCheck2.Gen.t
val parcel : Parcel.t QCheck2.Gen.t

(** {1 Whole programs} *)

val program : Ximd_core.Program.t QCheck2.Gen.t
(** Arbitrary programs with in-range branch targets (the encode/decode
    round-trip surface; not necessarily [validate]-clean). *)

val valid_program : Ximd_core.Program.t QCheck2.Gen.t
(** Programs satisfying [Program.validate] under the research
    sequencer: the general branchy XIMD shape (may spin forever — run
    under fuel). *)

val forward_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** Control-consistent straight-line programs (forward gotos, final
    halt — structurally terminating) and their FU count; run
    identically under every sequencing model (the §3.1 equivalence). *)

val memory_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** Forward programs with heavy load/store traffic over a small address
    window, plus occasional out-of-bounds addresses. *)

val handshake_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** SS handshake pair (§3.3): FU 0 produces and halts; the others spin
    on [SS_0 == DONE], then compute and halt. *)

val barrier_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** All FUs run blocks of uneven length, then meet on a full-mask
    [All_ss] barrier. *)

val fork_join_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** Two FU groups run bodies of different lengths (a two-SSET dynamic
    partition), re-joining on a full barrier. *)

val lockstep_program : (Ximd_core.Program.t * int) QCheck2.Gen.t
(** The lockstep VLIW-shaped code {!case} mixes in, described there. *)

(** {1 Fuzz cases} *)

type case = { program : Ximd_core.Program.t; config : Ximd_core.Config.t }

val case : case QCheck2.Gen.t
(** A weighted mix of the scenario shapes above and of lockstep
    VLIW-shaped code (every row's parcels share one control field and
    sync value, so all FUs run as one SSET at one PC, branching on
    condition codes that may still be unset and falling through, under
    the prototype sequencer, possibly off the end), paired with a varied
    configuration (FU count from the program; result latency 1–3;
    shared/small/distributed memory; small fuel; [Record] hazards; the
    prototype sequencer when a target falls through). *)
