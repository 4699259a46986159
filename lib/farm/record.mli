(** Result records (schema [ximd-result/1]) and campaign summaries
    (schema [ximd-summary/1]).

    One record per submitted job, always — a job that crashes the
    worker, blows its budget or gets dropped at shutdown still yields a
    record saying so.  Records for finished and rejected jobs contain
    only deterministic fields (no wall times, no domain identities), so
    a campaign's result stream is byte-identical across domain counts
    and across runs; {!Crashed} records embed an OCaml backtrace and are
    therefore the one status class excluded from committed goldens. *)

type status =
  | Finished of Ximd_core.Run.outcome
  | Deadline_exceeded of { deadline_ms : int }
      (** every attempt overran the job's wall-clock deadline *)
  | Crashed of { exn : string; backtrace : string }
      (** the run raised; the worker domain was recycled *)
  | Rejected of { reason : string }
      (** the spec never became a runnable job (parse/validation error,
          unreadable file, unknown workload, model/program mismatch) *)
  | Dropped of { reason : string }
      (** the farm shut down before the job ran (interrupt drain) *)

type stats = {
  cycles : int;
  data_ops : int;
  spin_slots : int;
  max_streams : int;
  commit_ops : int;
}

type t = {
  job : Job.t;
  status : status;
  attempts : int;
      (** run attempts consumed (1 + retries actually taken).  0 for
          {!Rejected} and {!Dropped}. *)
  stats : stats option;  (** present iff the job finished a run *)
  hazards : int;         (** hazards recorded by the final attempt *)
  check : string option;
      (** workload payloads: [None] check passed, [Some msg] it failed *)
  regs : (Ximd_isa.Reg.t * Ximd_isa.Value.t) list;
      (** the job's [dump_regs], read back after the final attempt *)
}

val exit_code : t -> int
(** The record's slot in the canonical {!Ximd_core.Run.exit_codes}
    table: finished outcomes map through {!Ximd_core.Run.exit_code}
    (with recorded hazards promoting a clean halt to 5),
    deadline-exceeded is 6, crashed is
    {!Ximd_core.Run.job_crashed_exit_code}, rejected is 1, and dropped
    is 130 (the SIGINT convention). *)

val class_label : t -> string
(** The record's outcome class as one deterministic word — [ok],
    [hazardous], [fuel_exhausted], [deadlocked], [budget_exceeded],
    [deadline_exceeded], [crashed], [rejected] or [dropped].  Finer
    than {!exit_code} (deadline and budget overruns share code 6) and
    free of run-dependent payloads, so campaign telemetry can count on
    it. *)

val to_json : t -> Json.t
val to_json_string : t -> string
(** One [ximd-result/1] line, no trailing newline. *)

type summary = {
  jobs : int;
  ok : int;               (** exit code 0 *)
  hazardous : int;        (** exit code 5 *)
  fuel_exhausted : int;
  deadlocked : int;
  budget_exceeded : int;  (** cycle budget and wall deadline *)
  crashed : int;
  rejected : int;
  dropped : int;
  check_failed : int;
  retried : int;          (** records whose [attempts] exceeded 1 *)
  max_exit_code : int;
}

val summarise : t list -> summary

val summary_to_json_string : ?metrics:Json.t -> summary -> string
(** One [ximd-summary/1] line, no trailing newline.  [metrics], when
    given (e.g. a campaign's merged {!Ximd_obs.Metrics.to_json}), is
    embedded as a ["metrics"] field. *)
