module Core = Ximd_core

type status =
  | Finished of Core.Run.outcome
  | Deadline_exceeded of { deadline_ms : int }
  | Crashed of { exn : string; backtrace : string }
  | Rejected of { reason : string }
  | Dropped of { reason : string }

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
  stats : stats option;
  hazards : int;
  check : string option;
  regs : (Ximd_isa.Reg.t * Ximd_isa.Value.t) list;
}

let exit_code t =
  match t.status with
  | Finished outcome ->
    let code = Core.Run.exit_code outcome in
    if code = 0 && t.hazards > 0 then 5 else code
  | Deadline_exceeded _ -> 6
  | Crashed _ -> Core.Run.job_crashed_exit_code
  | Rejected _ -> 1
  | Dropped _ -> 130

(* One deterministic word per record, the campaign-telemetry outcome
   vocabulary.  Finer than exit codes (deadline_exceeded and
   budget_exceeded share code 6 but are different failures) and stable
   across runs, unlike the status payloads. *)
let class_label t =
  match t.status with
  | Finished outcome -> (
    match outcome with
    | Core.Run.Halted _ -> if t.hazards > 0 then "hazardous" else "ok"
    | Core.Run.Fuel_exhausted _ -> "fuel_exhausted"
    | Core.Run.Deadlocked _ -> "deadlocked"
    | Core.Run.Budget_exceeded _ -> "budget_exceeded")
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Crashed _ -> "crashed"
  | Rejected _ -> "rejected"
  | Dropped _ -> "dropped"

let json_of_status = function
  | Finished outcome -> Core.Run.to_json outcome
  | Deadline_exceeded { deadline_ms } ->
    Json.Obj
      [ ("kind", Json.String "deadline_exceeded");
        ("deadline_ms", Json.Int deadline_ms) ]
  | Crashed { exn; backtrace } ->
    Json.Obj
      [ ("kind", Json.String "crashed");
        ("exn", Json.String exn);
        ("backtrace", Json.String backtrace) ]
  | Rejected { reason } ->
    Json.Obj
      [ ("kind", Json.String "rejected"); ("reason", Json.String reason) ]
  | Dropped { reason } ->
    Json.Obj
      [ ("kind", Json.String "dropped"); ("reason", Json.String reason) ]

let json_of_stats s =
  Json.Obj
    [ ("cycles", Json.Int s.cycles);
      ("data_ops", Json.Int s.data_ops);
      ("spin_slots", Json.Int s.spin_slots);
      ("max_streams", Json.Int s.max_streams);
      ("commit_ops", Json.Int s.commit_ops) ]

let to_json t =
  Json.Obj
    (List.concat
       [ [ ("schema", Json.String "ximd-result/1");
           ("id", Json.String t.job.Job.id);
           ("index", Json.Int t.job.Job.index);
           ("model", Json.String (Core.Engine.model_name t.job.Job.model));
           ("seed", Json.Int t.job.Job.seed);
           ("status", json_of_status t.status);
           ("attempts", Json.Int t.attempts);
           ("exit_code", Json.Int (exit_code t)) ];
         (match t.stats with
          | None -> []
          | Some s -> [ ("stats", json_of_stats s) ]);
         [ ("hazards", Json.Int t.hazards) ];
         (match t.check with
          | None -> []
          | Some msg -> [ ("check", Json.String msg) ]);
         (if t.regs = [] then []
          else
            [ ( "regs",
                Json.Obj
                  (List.map
                     (fun (r, v) ->
                       ( Ximd_isa.Reg.to_string r,
                         Json.Int (Ximd_isa.Value.to_int v) ))
                     t.regs) ) ]);
         (* a crashed job echoes its spec so it can be replayed verbatim *)
         (match t.status with
          | Crashed _ -> [ ("job", Job.to_json t.job) ]
          | Finished _ | Deadline_exceeded _ | Rejected _ | Dropped _ -> [])
       ])

let to_json_string t = Json.to_string (to_json t)

(* ------------------------------------------------------------------ *)

type summary = {
  jobs : int;
  ok : int;
  hazardous : int;
  fuel_exhausted : int;
  deadlocked : int;
  budget_exceeded : int;
  crashed : int;
  rejected : int;
  dropped : int;
  check_failed : int;
  retried : int;
  max_exit_code : int;
}

let summarise records =
  List.fold_left
    (fun acc t ->
      let code = exit_code t in
      { jobs = acc.jobs + 1;
        ok = (acc.ok + if code = 0 then 1 else 0);
        hazardous = (acc.hazardous + if code = 5 then 1 else 0);
        fuel_exhausted = (acc.fuel_exhausted + if code = 3 then 1 else 0);
        deadlocked = (acc.deadlocked + if code = 4 then 1 else 0);
        budget_exceeded = (acc.budget_exceeded + if code = 6 then 1 else 0);
        crashed = (acc.crashed + if code = 7 then 1 else 0);
        rejected = (acc.rejected + if code = 1 then 1 else 0);
        dropped = (acc.dropped + if code = 130 then 1 else 0);
        check_failed = (acc.check_failed + if t.check <> None then 1 else 0);
        retried = (acc.retried + if t.attempts > 1 then 1 else 0);
        max_exit_code = max acc.max_exit_code code })
    { jobs = 0; ok = 0; hazardous = 0; fuel_exhausted = 0; deadlocked = 0;
      budget_exceeded = 0; crashed = 0; rejected = 0; dropped = 0;
      check_failed = 0; retried = 0; max_exit_code = 0 }
    records

let summary_to_json_string ?metrics s =
  let metrics_field =
    match metrics with None -> [] | Some j -> [ ("metrics", j) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("schema", Json.String "ximd-summary/1");
         ("jobs", Json.Int s.jobs);
         ("ok", Json.Int s.ok);
         ("hazardous", Json.Int s.hazardous);
         ("fuel_exhausted", Json.Int s.fuel_exhausted);
         ("deadlocked", Json.Int s.deadlocked);
         ("budget_exceeded", Json.Int s.budget_exceeded);
         ("crashed", Json.Int s.crashed);
         ("rejected", Json.Int s.rejected);
         ("dropped", Json.Int s.dropped);
         ("check_failed", Json.Int s.check_failed);
          ("retried", Json.Int s.retried);
          ("max_exit_code", Json.Int s.max_exit_code) ]
       @ metrics_field))

let pp_summary fmt s =
  Format.fprintf fmt
    "%d jobs: %d ok, %d hazardous, %d fuel-exhausted, %d deadlocked, %d \
     budget-exceeded, %d crashed, %d rejected, %d dropped (%d check \
     failures, %d retried)"
    s.jobs s.ok s.hazardous s.fuel_exhausted s.deadlocked s.budget_exceeded
    s.crashed s.rejected s.dropped s.check_failed s.retried
