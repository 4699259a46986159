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
  | Finished outcome -> Core.Run.exit_code ~hazards:t.hazards outcome
  | Deadline_exceeded _ -> 6
  | Crashed _ -> Core.Run.job_crashed_exit_code
  | Rejected _ -> 1
  | Dropped _ -> Core.Run.interrupted_exit_code

(* One deterministic word per record, the outcome vocabulary of the
   summary and of campaign telemetry.  Finer than exit codes
   (deadline_exceeded and budget_exceeded share code 6 but are
   different failures) and stable across runs, unlike the status
   payloads.  [class_labels] lists every word in summary order. *)
let class_labels =
  [ "ok"; "hazardous"; "fuel_exhausted"; "deadlocked"; "budget_exceeded";
    "deadline_exceeded"; "crashed"; "rejected"; "dropped" ]

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

let quality t =
  match t.status with
  | Finished (Core.Run.Halted _) when t.hazards = 0 -> Ximd_obs.Span.Good
  | Crashed _ | Rejected _ | Dropped _ -> Ximd_obs.Span.Bad
  | Finished _ | Deadline_exceeded _ -> Ximd_obs.Span.Suspect

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
  classes : (string * int) list;
  check_failed : int;
  retried : int;
  max_exit_code : int;
}

let summarise records =
  let count p =
    List.fold_left (fun n t -> if p t then n + 1 else n) 0 records
  in
  { jobs = List.length records;
    classes =
      List.map
        (fun label -> (label, count (fun t -> class_label t = label)))
        class_labels;
    check_failed = count (fun t -> t.check <> None);
    retried = count (fun t -> t.attempts > 1);
    max_exit_code =
      List.fold_left (fun acc t -> max acc (exit_code t)) 0 records }

let summary_to_json_string ?metrics s =
  let ints = List.map (fun (key, n) -> (key, Json.Int n)) in
  Json.to_string
    (Json.Obj
       ((("schema", Json.String "ximd-summary/1")
         :: ints
              ((("jobs", s.jobs) :: s.classes)
              @ [ ("check_failed", s.check_failed);
                  ("retried", s.retried);
                  ("max_exit_code", s.max_exit_code) ]))
       @ match metrics with None -> [] | Some j -> [ ("metrics", j) ]))
