(** Structured failure postmortems.

    When a run ends badly — deadlocked, out of fuel, or with recorded
    hazards — the raw outcome value says very little about {e why}.  This
    module snapshots the machine into a structured report: one record per
    FU (PC, the parcel it is stuck on, the condition it is re-evaluating,
    its SS/CC state and SSET membership), plus the hazard log and any
    fired fault-injection events.

    The report renders two ways: {!pp} for humans and {!to_json} for
    scripts and CI. *)

type fu_report = {
  fu : int;
  halted : bool;
  pc : int;
  parcel : string option;
      (** rendered parcel at [pc]; [None] when the PC is outside the
          program (after {!Ximd_machine.Hazard.Fell_off_end}) *)
  waiting : Ximd_isa.Cond.t option;
      (** the branch condition a live FU re-evaluates each cycle *)
  ss : Ximd_isa.Sync.t;
  cc : bool option;
  sset : int list;  (** members of this FU's SSET, ascending *)
}

type t = {
  outcome : Ximd_core.Run.outcome;
  cycle : int;
  fus : fu_report list;
  hazards : Ximd_machine.Hazard.event list;
  faults : Ximd_machine.Fault.event list;
      (** injected faults that actually fired, in firing order *)
}

val collect : Ximd_core.State.t -> outcome:Ximd_core.Run.outcome -> t
(** Snapshots the final machine state.  Cheap (proportional to the FU
    count plus log sizes); intended for after the run, not per cycle. *)

val pp : Format.formatter -> t -> unit
(** Human-readable postmortem: outcome line, per-FU table, hazard and
    fault listings. *)

val to_json : t -> Ximd_json.t
(** The same report as a single JSON object:
    [{"outcome": ..., "cycle": ..., "fus": [...], "hazards": [...],
      "faults": [...]}]. *)
