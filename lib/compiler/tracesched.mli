(** Restricted trace scheduling.

    "Trace Scheduling was the first technique applied to scheduling code
    beyond basic blocks on VLIW processors" (paper §1.2).  This module
    implements a restricted form of it over the IR:

    + Trace selection: follow the likelier successor from the entry
      block (probabilities supplied per branch, default 0.5 — which
      follows the then-target), stopping at a [Return], a revisited
      block, or a {e side entrance} (a trace block other than the head
      may have no predecessors outside the trace — the classic
      bookkeeping-free restriction).
    + Region scheduling: the trace's operations are scheduled as one
      region by {!Listsched.schedule_graph}, over the trace's data
      dependence graph plus [Control] edges for the side exits, with
      [width] data slots and one control slot per row: intermediate
      branches become in-row conditional side exits.  An operation may
      move {e above} a side exit only when that is speculation-safe:
      loads and pure arithmetic whose destination is dead on the
      off-trace path (idealised memory cannot fault; a speculatively
      clobbered condition code is harmless because every block's branch
      consumes a compare from its own block).  Stores and operations
      whose result is live off-trace keep their order against the exit.
      Operations above an exit may also sink {e into} (but not past) the
      exit row, since the machine commits a whole row even when the
      branch leaves it.
    + All remaining (off-trace) blocks are compiled block-at-a-time, as
      in {!Codegen}, whose driver ({!Codegen.drive}: width check,
      validation, register allocation) this compile shares. *)

type result = {
  compiled : Codegen.compiled;
  trace : string list;          (** selected trace labels, in order *)
  region_rows : int;            (** rows the scheduled region occupies *)
  blockwise_rows : int;         (** rows the same blocks take when
                                    scheduled one block at a time *)
}

val select_trace : ?prob:(string * float) list -> Ir.func -> string list
(** Exposed for tests; [prob] gives, per block label, the probability
    that its branch takes the first (then) target. *)

val compile :
  ?width:int ->
  ?prob:(string * float) list ->
  ?obs:Schedobs.t ->
  Ir.func ->
  (result, string list) Stdlib.result
(** [width] defaults to 8 ({!Codegen.check_width}).  [obs] pass-times
    validation, register allocation, trace selection, region
    build/schedule and emission, and records block reports for the
    off-trace blocks. *)
