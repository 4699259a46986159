(** Differential XIMD-vs-VLIW reports: the repository's one run of
    the paper's §4.1 comparison.

    Runs the same computation as two {!Ximd_workloads.Workload.variant}s
    — an XIMD coding and a VLIW coding — each through
    {!Ximd_workloads.Workload.run} under its own model, with a lean
    per-slot accounting sink attached, and explains the cycle delta
    slot-by-slot: where the VLIW coding pads nops for worst-case
    schedules, where the XIMD coding trades them for SS spins and
    barrier waits (the paper's Figure 8/9 discussion, mechanically).
    Experiments E1 and E5 and [xsim --compare] all come through here.

    The two sides are separate codings of the computation: a sync-based
    XIMD program is not control-consistent, so it cannot run under the
    global sequencer as-is. *)

type side = {
  label : string;                   (** ["ximd"] or ["vliw"] *)
  model : Ximd_core.Engine.model;
  n_fus : int;
  outcome : Ximd_core.Run.outcome;
  cycles : int;
  stats : Ximd_core.Stats.t;        (** the side's own run, safe to keep *)
  account : Ximd_obs.Account.t;
}

type t = {
  ximd : side;
  vliw : side;
}

val run :
  ximd:Ximd_workloads.Workload.variant ->
  vliw:Ximd_workloads.Workload.variant ->
  (t, string) result
(** Runs both sides, [ximd] first, each on a fresh session under its
    variant's model.  [Error "LABEL: MSG"] when a side's model rejects
    its program (e.g. a VLIW coding that is not control-consistent),
    and [Error "LABEL: hazard: EVENT"] when a run stops at a hazard.
    Non-halting outcomes are reported in the sides, not as errors, and
    the variants' checks are not run. *)

val of_workload : Ximd_workloads.Workload.t -> (t, string) result
(** {!run} on a workload's XIMD and VLIW variants, each of which must
    also halt within its fuel and pass its check, as
    {!Ximd_workloads.Workload.run_checked} demands.  Errors name the
    workload: ["NAME: no VLIW variant"], ["NAME: LABEL: MSG"]. *)

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
