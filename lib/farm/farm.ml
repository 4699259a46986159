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
      (* trace:false never pushes the ring, so a 1-slot ring avoids
         the default 64Ki allocation. *)
      let sink =
        Obs.Sink.create ~ring_capacity:1 ~trace:false ~profile:false
          ~account:true ~n_fus ~code_len ()
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
(* Payload resolution: job spec -> program + config + setup + check.
   Everything that can go wrong here is the submitter's fault, so it
   returns [Error reason] (-> Rejected), never raises. *)

type resolved = {
  r_program : Core.Program.t;
  r_config : Core.Config.t;
  r_setup : Core.State.t -> unit;
  r_check : (Core.State.t -> (unit, string) result) option;
}

let apply_inits (job : Job.t) (state : Core.State.t) =
  List.iter (fun (r, v) -> M.Regfile.set state.regs r v) job.Job.reg_inits;
  List.iter (fun (a, v) -> Core.State.mem_set state a v) job.Job.mem_inits

(* The job's machine-shape overrides on top of a base configuration.
   Hazards are always recorded: a batch run reports per-job hazard
   counts instead of dying on the first hazardous job. *)
let override_config (job : Job.t) (base : Core.Config.t) =
  { base with
    Core.Config.hazard_policy = M.Hazard.Record;
    max_cycles =
      Option.value job.Job.max_cycles ~default:base.Core.Config.max_cycles }

let config_of_program (job : Job.t) program =
  let n_fus = Core.Program.n_fus program in
  match
    Core.Config.make ~n_fus ~hazard_policy:M.Hazard.Record
      ?max_cycles:job.Job.max_cycles ?result_latency:job.Job.latency
      ?mem_words:job.Job.mem_words ?n_ports:job.Job.ports
      ?sequencer:job.Job.sequencer
      ?mem_organisation:
        (if job.Job.distributed then
           Some (M.Memory.Distributed { n_fus })
         else None)
      ()
  with
  | config -> Ok config
  | exception Invalid_argument msg -> Error msg

let resolve ctx (job : Job.t) =
  match job.Job.payload with
  | Job.Source text -> (
    match Ximd_asm.Source.parse text with
    | Error e -> Error (Format.asprintf "source: %a" Ximd_asm.Source.pp_error e)
    | Ok program ->
      Result.map
        (fun config ->
          { r_program = program;
            r_config = config;
            r_setup = apply_inits job;
            r_check = None })
        (config_of_program job program))
  | Job.File path -> (
    match Ximd_asm.Source.parse_file path with
    | Error e ->
      Error (Format.asprintf "%s: %a" path Ximd_asm.Source.pp_error e)
    | Ok program ->
      Result.map
        (fun config ->
          { r_program = program;
            r_config = config;
            r_setup = apply_inits job;
            r_check = None })
        (config_of_program job program))
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
        | Core.Engine.Global -> (
          match w.vliw with
          | Some v -> Ok v
          | None ->
            Error (Printf.sprintf "workload %S has no VLIW variant" name))
        | Core.Engine.Per_fu | Core.Engine.Banked -> Ok w.ximd
      in
      match variant with
      | Error _ as e -> e
      | Ok v ->
        Ok
          { r_program = v.Ximd_workloads.Workload.program;
            r_config = override_config job v.Ximd_workloads.Workload.config;
            r_setup =
              (fun state ->
                v.Ximd_workloads.Workload.setup state;
                apply_inits job state);
            r_check = Some v.Ximd_workloads.Workload.check }))

(* ------------------------------------------------------------------ *)
(* Retry backoff: deterministic in (seed, attempt) via splitmix64, so a
   re-run of the same campaign retries on the same schedule.  Capped at
   a quarter second — the point is to let a transient load spike pass,
   not to stall the worker. *)

let splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let backoff_s ~seed ~attempt =
  let h = splitmix64 (Int64.of_int ((seed * 1_000_003) + attempt)) in
  let jitter_ms = Int64.to_int (Int64.logand h 63L) in
  let base_ms = 20 * attempt in
  float_of_int (min 250 (base_ms + jitter_ms)) /. 1000.

(* ------------------------------------------------------------------ *)
(* Campaign telemetry plumbing.  Every record path funnels through
   [completed], so the observer sees exactly one on_complete per job
   whatever its fate; sink merging happens only for records that
   finished a run — a timed-out or rejected attempt leaves partial,
   timing-dependent tallies in the sink that must not pollute the
   deterministic campaign aggregates. *)

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
     match (record.Record.status, sink) with
     | Record.Finished _, Some sink ->
       (match Obs.Sink.account sink with
        | Some acct -> Obs.Farmobs.merge_account o acct
        | None -> ());
       Obs.Farmobs.merge_metrics o (Obs.Sink.metrics sink)
     | _ -> ());
  record

(* ------------------------------------------------------------------ *)

let run_job ?hook ?obs ?(seq = -1) ctx (job : Job.t) =
  (match hook with None -> () | Some f -> f job);
  let rejected reason =
    completed ?obs ~seq
      { Record.job;
        status = Record.Rejected { reason };
        attempts = 0;
        stats = None;
        hazards = 0;
        check = None;
        regs = [] }
  in
  match resolve ctx job with
  | Error reason -> rejected reason
  | Ok { r_program; r_config; r_setup; r_check } -> (
    let faults =
      match job.Job.fault with
      | None -> Ok None
      | Some spec -> (
        match
          M.Fault.parse ~n_fus:r_config.Core.Config.n_fus spec
        with
        | Ok events -> Ok (Some (M.Fault.create events))
        | Error msg -> Error ("fault: " ^ msg))
    in
    match faults with
    | Error reason -> rejected reason
    | Ok faults -> (
      match
        session_for ctx ~config:r_config ~model:job.Job.model ~faults
          r_program
      with
      | exception Invalid_argument msg ->
        (* model/program structural mismatch (e.g. a non-consistent
           program under vsim) is a rejection, not a crash *)
        rejected msg
      | session, sink, cache_hit ->
        (match obs with
         | None -> ()
         | Some o -> Obs.Farmobs.on_session_ready o ~seq ~cache_hit);
        let n_fus = r_config.Core.Config.n_fus in
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
                  if Unix.gettimeofday () >= deadline then
                    raise Wall_deadline)
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
        let status, attempts = attempt 1 in
        (match status with
         | Record.Deadline_exceeded _ | Record.Rejected _ ->
           (* a timed-out attempt stops mid-run (partial stats and
              registers are timing-dependent) and a run-time rejection
              never ran, so neither record carries state *)
           completed ?obs ~seq ?sink
             { Record.job;
               status;
               attempts;
               stats = None;
               hazards = 0;
               check = None;
               regs = [] }
         | _ ->
           let state = Core.Session.state session in
           let stats = state.Core.State.stats in
           let check =
             match r_check with
             | None -> None
             | Some check -> (
               match check state with Ok () -> None | Error msg -> Some msg)
           in
           completed ?obs ~seq ?sink ~n_fus
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
                   job.Job.dump_regs })))

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

let rejected job reason =
  { Record.job;
    status = Record.Rejected { reason };
    attempts = 0;
    stats = None;
    hazards = 0;
    check = None;
    regs = [] }

let create ?domains ?queue_bound ?hook ?obs ~emit () =
  let work ctx ~seq = function
    | Run job -> run_job ?hook ?obs ~seq ctx job
    | Pre_rejected (job, reason) ->
      completed ?obs ~seq (rejected job reason)
  in
  let crashed ~seq item ~exn ~backtrace =
    let job =
      match item with Run job | Pre_rejected (job, _) -> job
    in
    completed ?obs ~seq
      { Record.job;
        status = Record.Crashed { exn; backtrace };
        attempts = 1;
        stats = None;
        hazards = 0;
        check = None;
        regs = [] }
  in
  let dropped ~seq item =
    let job =
      match item with Run job | Pre_rejected (job, _) -> job
    in
    completed ?obs ~seq
      { Record.job;
        status = Record.Dropped { reason = "farm interrupted before run" };
        attempts = 0;
        stats = None;
        hazards = 0;
        check = None;
        regs = [] }
  in
  let probe =
    Option.map
      (fun o ->
        { Pool.p_enqueue = (fun ~seq ~depth -> Obs.Farmobs.on_enqueue o ~seq ~depth);
          p_dequeue =
            (fun ~seq ~domain ~depth ->
              Obs.Farmobs.on_dequeue o ~seq ~domain ~depth);
          p_emit = (fun ~seq -> Obs.Farmobs.on_emit o ~seq) })
      obs
  in
  { pool =
      Pool.create ?domains ?queue_bound ?probe
        ~init:(make_ctx ~telemetry:(obs <> None))
        ~work ~crashed ~dropped ~emit ();
    lines = 0 }

let submit t job = Pool.submit t.pool (Run job)

(* A line that fails to parse still needs a Job.t to hang its record
   on: a placeholder carrying the raw line for replay. *)
let placeholder_job ~index raw =
  { Job.id = Printf.sprintf "line-%d" (index + 1);
    index;
    payload = Job.Source "";
    model = Core.Engine.Per_fu;
    seed = 0;
    fault = None;
    max_cycles = None;
    budget = None;
    deadline_ms = None;
    retries = 0;
    latency = None;
    mem_words = None;
    distributed = false;
    ports = None;
    sequencer = None;
    detect_deadlock = true;
    reg_inits = [];
    mem_inits = [];
    dump_regs = [];
    raw }

let submit_line t line =
  let index = t.lines in
  t.lines <- t.lines + 1;
  match Job.of_line ~index line with
  | Ok job -> Pool.submit t.pool (Run job)
  | Error reason ->
    Pool.submit t.pool (Pre_rejected (placeholder_job ~index line, reason))

let interrupt t = Pool.interrupt t.pool
let join t = Pool.join t.pool
let crashes t = Pool.crashes t.pool

let run_list ?domains ?queue_bound ?hook ?obs jobs =
  let acc = ref [] in
  let farm =
    create ?domains ?queue_bound ?hook ?obs
      ~emit:(fun r -> acc := r :: !acc)
      ()
  in
  List.iter (fun job -> ignore (submit farm job)) jobs;
  join farm;
  let records = List.rev !acc in
  (records, Record.summarise records)
