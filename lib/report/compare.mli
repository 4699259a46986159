(** Differential XIMD-vs-VLIW reports.

    Runs the same computation through a {!Ximd_core.Engine.Per_fu}
    session and a {!Ximd_core.Engine.Global} session — each with
    per-slot cycle accounting attached — and explains the cycle delta
    slot-by-slot: where the VLIW coding pads nops for worst-case
    schedules, where the XIMD coding trades them for SS spins and
    barrier waits (the paper's Figure 8/9 discussion, mechanically).

    The two sides are separate codings of the computation: a sync-based
    XIMD program is not control-consistent, so it cannot run under the
    global sequencer as-is. *)

type side = {
  label : string;
  model : Ximd_core.Engine.model;
  n_fus : int;
  outcome : Ximd_core.Run.outcome;
  cycles : int;
  stats : Ximd_core.Stats.t;        (** snapshot, safe to keep *)
  account : Ximd_obs.Account.t;
}

type t = {
  ximd : side;
  vliw : side;
}

type spec = {
  program : Ximd_core.Program.t;
  config : Ximd_core.Config.t;
  setup : Ximd_core.State.t -> unit;
}

val spec :
  ?config:Ximd_core.Config.t ->
  ?setup:(Ximd_core.State.t -> unit) ->
  Ximd_core.Program.t ->
  spec
(** [config] defaults to {!Ximd_core.Config.make} with the program's FU
    count; [setup] defaults to nothing. *)

val run : ximd:spec -> vliw:spec -> (t, string) result
(** Runs both sides (XIMD under [Per_fu], VLIW under [Global]).
    [Error] when a side's program is rejected (e.g. the VLIW coding is
    not control-consistent) or a run stops at a hazard; non-halting
    outcomes are reported in the sides, not as errors. *)

val of_workload : Ximd_workloads.Workload.t -> (t, string) result
(** Compare a workload's built-in XIMD and VLIW variants.  [Error] if
    the workload has no VLIW variant. *)

val delta_cycles : t -> int
(** [vliw.cycles - ximd.cycles]. *)

val speedup : t -> float
(** [vliw.cycles / ximd.cycles]; [0.] if the XIMD side ran 0 cycles. *)

val to_json : t -> Ximd_json.t
(** The [ximd-compare/1] document: both
    sides (each embedding its [ximd-account/1] document) plus the
    cycle delta, speedup, and per-category slot deltas. *)

val pp : Format.formatter -> t -> unit
(** Human report: cycles/speedup header, per-side utilisation, the
    category-by-category slot table, and a one-line summary of where
    the VLIW's extra slots went. *)
