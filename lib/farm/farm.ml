module Core = Ximd_core
module M = Ximd_machine
module Obs = Ximd_obs

(* Raised from the engine's poll hook when an attempt overruns its
   wall-clock deadline; never escapes [run_job]. *)
exception Wall_deadline

(* ------------------------------------------------------------------ *)
(* Per-domain context: a bounded cache of reusable sessions, keyed by
   machine shape, and one watchdog.  Rebuilt wholesale after a crash.
   With campaign telemetry on, each cached session carries its own
   account-only sink (reset by the session at every run), so a finished
   job's slot taxonomy and metrics can be folded into the campaign. *)

let session_cache_cap = 8

type ctx = {
  mutable sessions :
    ((Core.Config.t * Core.Engine.model)
    * (Core.Session.t * Obs.Sink.t option))
    list;
  mutable sinks : ((int * int) * Obs.Sink.t) list;
      (* account-only sinks keyed by (n_fus, code_len) — the only
         dimensions that size a sink.  A domain runs jobs one at a
         time and the session resets its sink at every run, so jobs
         whose sessions share a shape can share a sink; this keeps
         sink construction off the per-job path when every job is a
         session-cache miss (distinct seeds). *)
  watchdog : Core.Watchdog.t;
  workloads : Ximd_workloads.Workload.t list Lazy.t;
      (* Suite.all builds every workload (programs, data, checkers);
         amortise it per domain instead of paying it per job *)
  telemetry : bool;
}

let make_ctx ~telemetry _index =
  { sessions = [];
    sinks = [];
    watchdog = Core.Watchdog.create ();
    workloads = lazy (Ximd_workloads.Suite.all ());
    telemetry }

(* Account-only sink: no event ring traffic, no hot-PC sampling, to keep
   the whole-campaign overhead (the ledger's campaign [trace_overhead])
   small; slot accounting is one array increment per fu×cycle slot.
   [code_len] only sizes the (disabled) profiler. *)
let new_sink ctx ~config ~program =
  if not ctx.telemetry then None
  else begin
    let n_fus = config.Core.Config.n_fus in
    let code_len = Core.Program.length program in
    let key = (n_fus, code_len) in
    match List.assoc_opt key ctx.sinks with
    | Some sink -> Some sink
    | None ->
      let sink =
        Obs.Sink.create ~trace:false ~profile:false ~account:true ~n_fus
          ~code_len ()
      in
      ctx.sinks <- (key, sink) :: ctx.sinks;
      Some sink
  end

(* Fault-free jobs share sessions (the program swaps per run); a job
   with a fault plan gets a one-shot session, since the schedule is
   baked in at session creation.  Returns the session's sink and
   whether the cache served it. *)
let session_for ctx ~config ~model ~faults program =
  match faults with
  | Some faults ->
    let sink = new_sink ctx ~config ~program in
    (Core.Session.create ~config ~faults ?obs:sink ~model program, sink, false)
  | None -> (
    let key = (config, model) in
    match List.assoc_opt key ctx.sessions with
    | Some (session, sink) -> (session, sink, true)
    | None ->
      let sink = new_sink ctx ~config ~program in
      let session = Core.Session.create ~config ?obs:sink ~model program in
      let keep =
        List.filteri (fun i _ -> i < session_cache_cap - 1) ctx.sessions
      in
      ctx.sessions <- (key, (session, sink)) :: keep;
      (session, sink, false))

(* ------------------------------------------------------------------ *)
(* Payload resolution: job spec -> program + config + faults + setup +
   check.  Everything that can go wrong here is the submitter's fault,
   so it returns [Error reason] (-> Rejected), never raises. *)

type resolved = {
  r_program : Core.Program.t;
  r_config : Core.Config.t;
  r_faults : M.Fault.t option;
  r_setup : Core.State.t -> unit;
  r_check : (Core.State.t -> (unit, string) result) option;
}

let apply_inits (job : Job.t) state =
  Core.State.apply_inits state ~regs:job.Job.reg_inits ~mem:job.Job.mem_inits

let faults_of (job : Job.t) (config : Core.Config.t) =
  match job.Job.fault with
  | None -> Ok None
  | Some spec -> (
    match M.Fault.of_spec ~n_fus:config.n_fus spec with
    | Ok faults -> Ok (Some faults)
    | Error msg -> Error ("fault: " ^ msg))

(* A payload's program, base config, setup and check, resolved with the
   job's faults and config: its shape keys over the base, so a shape
   [Config.make] refuses is a rejection whatever the payload.  Hazards
   are recorded: a batch reports per-job counts instead of dying. *)
let resolve_payload (job : Job.t) r_program base r_setup r_check =
  match
    Core.Config.apply job.Job.shape
      { base with Core.Config.hazard_policy = M.Hazard.Record }
  with
  | Error _ as e -> e
  | Ok r_config -> (
    match faults_of job r_config with
    | Error _ as e -> e
    | Ok r_faults -> Ok { r_program; r_config; r_faults; r_setup; r_check })

(* An assembled program runs on the default machine at its own width. *)
let assembled (job : Job.t) what = function
  | Error e ->
    Error (Format.asprintf "%s: %a" what Ximd_asm.Source.pp_error e)
  | Ok program ->
    resolve_payload job program
      { Core.Config.default with n_fus = Core.Program.n_fus program }
      (apply_inits job) None

let resolve ctx (job : Job.t) =
  match job.Job.payload with
  | Job.Source text -> assembled job "source" (Ximd_asm.Source.parse text)
  | Job.File path ->
    (* A job may name any file the farm's user can read, so where its
       text does not assemble the record names the line, never the
       text: a parse message quotes the offending source. *)
    assembled job path
      (match Ximd_asm.Source.read_file path with
       | Error message -> Error { line = 0; message }
       | Ok text ->
         Result.map_error
           (fun (e : Ximd_asm.Source.error) ->
             { e with message = "not XIMD assembly" })
           (Ximd_asm.Source.parse text))
  | Job.Workload name -> (
    let workloads = Lazy.force ctx.workloads in
    match
      List.find_opt
        (fun (w : Ximd_workloads.Workload.t) -> w.name = name)
        workloads
    with
    | None ->
      Error
        (Printf.sprintf "unknown workload %S (have: %s)" name
           (String.concat ", "
              (List.map
                 (fun (w : Ximd_workloads.Workload.t) -> w.name)
                 workloads)))
    | Some w -> (
      let variant =
        match job.Job.model with
        | Core.Engine.Global -> w.vliw
        | Core.Engine.Per_fu | Core.Engine.Banked -> Some w.ximd
      in
      match variant with
      | None -> Error (Printf.sprintf "workload %S has no VLIW variant" name)
      | Some v ->
        resolve_payload job v.program v.config
          (fun state ->
            v.setup state;
            apply_inits job state)
          (Some v.check)))

(* ------------------------------------------------------------------ *)
(* Retry backoff: deterministic in (seed, attempt) via splitmix64, so a
   re-run of the same campaign retries on the same schedule.  Capped at
   a quarter second — the point is to let a transient load spike pass,
   not to stall the worker. *)

let backoff_s ~seed ~attempt =
  let h =
    M.Fault.splitmix64 (ref (Int64.of_int ((seed * 1_000_003) + attempt)))
  in
  let jitter_ms = Int64.to_int (Int64.logand h 63L) in
  let base_ms = 20 * attempt in
  float_of_int (min 250 (base_ms + jitter_ms)) /. 1000.

(* ------------------------------------------------------------------ *)
(* Campaign telemetry plumbing.  Every record path funnels through
   [completed], so the observer sees exactly one on_complete per job
   whatever its fate.  Only a run that finished passes its [sink]: a
   timed-out or rejected attempt leaves partial, timing-dependent
   tallies in the sink that must not pollute the deterministic campaign
   aggregates. *)

let quality_of label =
  match label with
  | "ok" -> Obs.Span.Good
  | "crashed" | "rejected" | "dropped" -> Obs.Span.Bad
  | _ -> Obs.Span.Suspect

let outcome_of (record : Record.t) =
  let label = Record.class_label record in
  Obs.Span.outcome ~label ~quality:(quality_of label)

let completed ?obs ~seq ?sink ?n_fus (record : Record.t) =
  (match obs with
   | None -> ()
   | Some o ->
     Obs.Farmobs.on_complete o ~seq ~id:record.Record.job.Job.id
       ~result:(outcome_of record) ~attempts:record.Record.attempts
       ?cycles:
         (Option.map (fun (s : Record.stats) -> s.Record.cycles)
            record.Record.stats)
       ?n_fus ();
     Option.iter
       (fun sink ->
         Option.iter (Obs.Farmobs.merge_account o) (Obs.Sink.account sink);
         Obs.Farmobs.merge_metrics o (Obs.Sink.metrics sink))
       sink);
  record

(* The record of a job that never finished a run — rejected, crashed,
   dropped or out of wall-clock time — carries no machine state. *)
let unfinished ?(attempts = 0) job status =
  { Record.job;
    status;
    attempts;
    stats = None;
    hazards = 0;
    check = None;
    regs = [] }

(* ------------------------------------------------------------------ *)

let run_job ?hook ?obs ~seq ctx (job : Job.t) =
  (match hook with None -> () | Some f -> f job);
  let rejected reason =
    completed ?obs ~seq (unfinished job (Record.Rejected { reason }))
  in
  match resolve ctx job with
  | Error reason -> rejected reason
  | Ok { r_program; r_config; r_faults; r_setup; r_check } -> (
    match
      session_for ctx ~config:r_config ~model:job.Job.model ~faults:r_faults
        r_program
    with
    | exception Invalid_argument msg ->
      (* model/program structural mismatch (e.g. a non-consistent
         program under vsim) is a rejection, not a crash *)
      rejected msg
    | session, sink, cache_hit -> (
      (match obs with
       | None -> ()
       | Some o -> Obs.Farmobs.on_session_ready o ~seq ~cache_hit);
      let watchdog =
        if job.Job.detect_deadlock then Some ctx.watchdog else None
      in
      let attempt_once () =
        (match watchdog with
         | Some w -> Core.Watchdog.reset w
         | None -> ());
        let poll =
          match job.Job.deadline_ms with
          | None -> None
          | Some ms ->
            let deadline =
              Unix.gettimeofday () +. (float_of_int ms /. 1000.)
            in
            Some
              (fun () ->
                if Unix.gettimeofday () >= deadline then raise Wall_deadline)
        in
        Core.Session.run ?watchdog ?budget:job.Job.budget ?poll
          ~program:r_program ~setup:r_setup session
      in
      let rec attempt n =
        match attempt_once () with
        | outcome -> (Record.Finished outcome, n)
        | exception Invalid_argument msg ->
          (* some model/program mismatches surface only when the run
             starts (e.g. a bank-inconsistent program under t500);
             they are spec errors, not crashes *)
          (Record.Rejected { reason = msg }, 0)
        | exception Wall_deadline ->
          if n <= job.Job.retries then begin
            (match obs with
             | None -> ()
             | Some o -> Obs.Farmobs.on_retry o ~seq ~attempt:n);
            Unix.sleepf (backoff_s ~seed:job.Job.seed ~attempt:n);
            attempt (n + 1)
          end
          else
            ( Record.Deadline_exceeded
                { deadline_ms = Option.get job.Job.deadline_ms },
              n )
        (* any other exception escapes to the pool boundary: the
           worker's session cache is rebuilt and the job becomes a
           Crashed record *)
      in
      match attempt 1 with
      | (Record.Finished _ as status), attempts ->
        let state = Core.Session.state session in
        let stats = state.Core.State.stats in
        let check =
          match r_check with
          | None -> None
          | Some check -> (
            match check state with Ok () -> None | Error msg -> Some msg)
        in
        completed ?obs ~seq ?sink ~n_fus:r_config.Core.Config.n_fus
          { Record.job;
            status;
            attempts;
            stats =
              Some
                { Record.cycles = stats.Core.Stats.cycles;
                  data_ops = stats.Core.Stats.data_ops;
                  spin_slots = stats.Core.Stats.spin_slots;
                  max_streams = stats.Core.Stats.max_streams;
                  commit_ops = stats.Core.Stats.commit_ops };
            hazards = List.length (Core.State.hazards state);
            check;
            regs =
              List.map
                (fun r -> (r, M.Regfile.read state.Core.State.regs r))
                job.Job.dump_regs }
      | status, attempts ->
        (* a timed-out attempt stops mid-run (partial stats and
           registers are timing-dependent) and a run-time rejection
           never ran, so neither record carries state *)
        completed ?obs ~seq (unfinished ~attempts job status)))

(* ------------------------------------------------------------------ *)
(* The farm: a pool of [ctx] workers running [run_job], with rejection
   and drop records built here so the pool stays generic. *)

type item =
  | Run of Job.t
  | Pre_rejected of Job.t * string
      (* the spec line never parsed; flows through the pool so its
         record keeps its stream position *)

type t = {
  pool : (ctx, item, Record.t) Pool.t;
  mutable lines : int;  (* submit_line's index counter (producer-side) *)
}

let create ?domains ?queue_bound ?hook ?obs ~emit () =
  let unrun ~seq ?attempts item status =
    let job = match item with Run job | Pre_rejected (job, _) -> job in
    completed ?obs ~seq (unfinished ?attempts job status)
  in
  let work ctx ~seq item =
    match item with
    | Run job -> run_job ?hook ?obs ~seq ctx job
    | Pre_rejected (_, reason) -> unrun ~seq item (Record.Rejected { reason })
  in
  let crashed ~seq item ~exn ~backtrace =
    unrun ~seq ~attempts:1 item (Record.Crashed { exn; backtrace })
  in
  let dropped ~seq item =
    unrun ~seq item (Record.Dropped { reason = "farm interrupted before run" })
  in
  { pool =
      Pool.create ?domains ?queue_bound ?obs
        ~init:(make_ctx ~telemetry:(obs <> None))
        ~work ~crashed ~dropped ~emit ();
    lines = 0 }

(* A line that fails to parse still needs a Job.t to hang its record
   on: a placeholder carrying the raw line for replay. *)
let placeholder_job ~index raw =
  { Job.id = Printf.sprintf "line-%d" (index + 1);
    index;
    payload = Job.Source "";
    model = Core.Engine.Per_fu;
    seed = 0;
    fault = None;
    shape = [];
    budget = None;
    deadline_ms = None;
    retries = 0;
    detect_deadlock = true;
    reg_inits = [];
    mem_inits = [];
    dump_regs = [];
    raw }

let next_index t =
  let index = t.lines in
  t.lines <- t.lines + 1;
  index

let submit_line t line =
  let index = next_index t in
  Pool.submit t.pool
    (match Job.of_line ~index line with
     | Ok job -> Run job
     | Error reason -> Pre_rejected (placeholder_job ~index line, reason))

let reject_line t reason =
  let index = next_index t in
  Pool.submit t.pool (Pre_rejected (placeholder_job ~index "", reason))

let interrupt t = Pool.interrupt t.pool
let join t = Pool.join t.pool
