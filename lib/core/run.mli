(** Run outcomes shared by the XIMD and VLIW simulators. *)

type waiting = { fu : int; pc : int; cond : Ximd_isa.Cond.t }
(** One spinning functional unit in a deadlock report: where it is stuck
    and the branch condition it re-evaluates each cycle (an
    unconditional self-loop reports [Always1]). *)

type outcome =
  | Halted of { cycles : int }
      (** every functional unit executed a halt *)
  | Fuel_exhausted of { cycles : int }
      (** the configured [max_cycles] elapsed first *)
  | Deadlocked of { cycles : int; spinning : waiting list }
      (** the {!Watchdog} established that no live FU can ever make
          progress again: every one is pinned on a condition whose
          inputs no other FU will change *)
  | Budget_exceeded of { cycles : int; budget : int }
      (** a caller-supplied per-run cycle budget (smaller than the
          configured fuel) elapsed first — the resource-limit outcome
          the run-farm supervisor (lib/farm) gives every job *)

val cycles : outcome -> int
val completed : outcome -> bool

val spinning : outcome -> waiting list
(** The spinning set of a {!Deadlocked} outcome; [[]] otherwise. *)

val exit_codes : (int * string) list
(** The canonical CLI exit-code table — [(code, meaning)] pairs, sorted
    by code.  The simulator CLIs derive their [--help] EXIT STATUS
    sections from this list and the README documents the same table; a
    smoke test asserts all three agree. *)

val exit_code : outcome -> int
(** The exit code a simulator CLI reports for this outcome: 0 halted,
    3 fuel exhausted, 4 deadlocked, 6 cycle budget exceeded.  (Codes 1,
    2, 5 and 7 arise from input validation, hazards,
    [--record-hazards] and farm job crashes, not from the outcome.) *)

val job_crashed_exit_code : int
(** Exit code 7 — an exception escaped a run-farm job (lib/farm); there
    is no [outcome] constructor for it because the run never finished. *)

val kind : outcome -> string
(** ["halted"], ["fuel_exhausted"], ["deadlocked"] or
    ["budget_exceeded"]. *)

val to_json : outcome -> Ximd_json.t
(** [{"kind":…,"cycles":…}] plus the deadlock's ["spinning"] FUs
    ([fu]/[pc]/[cond]) or the exceeded ["budget"] — the outcome object
    of result records and postmortems. *)

val pp_waiting : Format.formatter -> waiting -> unit
val pp : Format.formatter -> outcome -> unit
