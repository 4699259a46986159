(** Job specifications for the run farm.

    One job is one complete simulator run: a program (inline source, a
    file path, or a named workload), a machine shape, a seed, and the
    supervision limits the farm enforces around the run.  Jobs arrive as
    line-delimited JSON (schema [ximd-job/1]); {!of_line} validates
    strictly — unknown or repeated keys, malformed values and
    out-of-range machine shapes are structured errors, never exceptions
    — because a batch front-end must reject a bad line and keep going. *)

type payload =
  | Source of string    (** inline XIMD assembly ([source]) *)
  | File of string      (** path to an [.xasm] file ([file]) *)
  | Workload of string  (** a {!Ximd_workloads.Suite} name ([workload]) *)

type t = {
  id : string;          (** caller's name for the job; echoed in results *)
  index : int;          (** submission order; results are emitted in it *)
  payload : payload;
  model : Ximd_core.Engine.model;
      (** sequencing model ([model]: ["xsim"], ["vsim"] or ["t500"]).
          For a [Workload] payload, ["vsim"] selects the workload's VLIW
          variant; the default ["xsim"] selects its XIMD variant. *)
  seed : int;           (** retry-backoff derivation; echoed in results *)
  fault : string option;
      (** a {!Ximd_machine.Fault.parse} spec ([fault]) *)
  shape : Ximd_core.Config.setting list;
      (** the machine-shape keys given ({!Ximd_core.Config.read}) *)
  budget : int option;       (** cycle budget below fuel ([budget]) *)
  deadline_ms : int option;
      (** per-attempt wall-clock limit ([deadline_ms]), from when a
          worker takes the job (payload parsing counts) or a retry starts *)
  retries : int;
      (** extra attempts after a transient failure, at most
          {!max_retries} *)
  detect_deadlock : bool;    (** default [true] *)
  reg_inits : (Ximd_isa.Reg.t * Ximd_isa.Value.t) list;
      (** [regs]: object of ["rN" : int] *)
  mem_inits : (int * Ximd_isa.Value.t) list;
      (** [mem]: object of ["ADDR" : int] *)
  dump_regs : Ximd_isa.Reg.t list;
      (** [dump_regs]: registers to read back into the result record *)
  raw : string;         (** the original spec line, echoed on crashes *)
}

val max_retries : int
(** The most [retries] a job may ask for: 10.  Each retry first sleeps
    a backoff of up to 250 ms, so ten hold a worker for at most about
    1.7 s; a larger value is a rejected spec
    ([key "retries": must be at most 10 (got N)]). *)

val of_line : index:int -> string -> (t, string) result
(** Parses and validates one [ximd-job/1] line.  Every diagnostic names
    the offending key; unknown and repeated keys are rejected. *)

val to_json : t -> Json.t
(** The job's spec as JSON (round-trips through {!of_line} up to key
    order) — embedded in crash records so a failing job can be replayed
    verbatim. *)

val model_name : Ximd_core.Engine.model -> string
(** {!Ximd_core.Engine.model_name}: an alias kept only for
    [bench/ledger]. *)
