(* Supervised run farm: determinism across domain counts, one record
   per job under crashes/deadlocks/budgets, retry accounting, strict
   spec validation, pool ordering and graceful drain. *)

module Core = Ximd_core
module F = Ximd_farm

let job_of_line line ~index =
  match F.Job.of_line ~index line with
  | Ok job -> job
  | Error e -> Alcotest.failf "job %d: %s" index e

(* A tiny program that wedges immediately: FU 0 waits forever on its
   own BUSY signal. *)
let deadlock_source = ".fus 1\nloop:\n  [0] nop | if ss0 loop : loop\n"

(* JSON-escape a source payload for embedding in a job line. *)
let quote s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let mixed_lines =
  [ {|{"workload":"minmax","id":"ok","dump_regs":["r3","r4"]}|};
    Printf.sprintf {|{"source":"%s","id":"deadlock"}|} (quote deadlock_source);
    {|{"workload":"matmul","id":"budget","budget":5}|};
    {|{"workload":"minmax","id":"vliw","model":"vsim"}|};
    {|{"workload":"nope","id":"reject-workload"}|};
    {|{"workload":"minmax","id":"deadline","deadline_ms":0,"retries":2}|};
    (* minmax is not bank-consistent: t500 refuses it at run start,
       which must classify as Rejected, not Crashed *)
    {|{"workload":"minmax","id":"reject-banked","model":"t500"}|};
    {|{"workload":"bitcount","id":"fuel","max_cycles":3}|};
    {|{"workload":"minmax","id":"fault","fault":"ss@4:1","seed":9}|} ]

let serialise records =
  String.concat "\n" (List.map F.Record.to_json_string records)

(* Submits job lines the one way the farm takes them and returns the
   records in stream order with their summary. *)
let run_lines ?hook ~domains lines =
  let acc = ref [] in
  let farm =
    F.Farm.create ~domains ?hook ~emit:(fun r -> acc := r :: !acc) ()
  in
  List.iter (fun line -> ignore (F.Farm.submit_line farm line)) lines;
  F.Farm.join farm;
  let records = List.rev !acc in
  (records, F.Record.summarise records)

(* --- Determinism --------------------------------------------------------- *)

let test_determinism_across_domains () =
  let baseline, _ = run_lines ~domains:1 mixed_lines in
  List.iter
    (fun domains ->
      let records, _ = run_lines ~domains mixed_lines in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical at %d domains" domains)
        (serialise baseline) (serialise records))
    [ 2; 4 ];
  let again, _ = run_lines ~domains:2 mixed_lines in
  Alcotest.(check string) "byte-identical across runs" (serialise baseline)
    (serialise again)

(* --- One record per job under adversarial jobs --------------------------- *)

let test_one_record_per_job () =
  let hook (job : F.Job.t) =
    if job.F.Job.id = "crash" then failwith "planted crash"
  in
  let lines =
    mixed_lines @ [ {|{"workload":"minmax","id":"crash"}|} ]
  in
  let records, summary = run_lines ~hook ~domains:3 lines in
  Alcotest.(check int) "one record per job" (List.length lines)
    (List.length records);
  Alcotest.(check int) "summary counts every job" (List.length lines)
    summary.F.Record.jobs;
  let find id =
    List.find
      (fun (r : F.Record.t) -> r.F.Record.job.F.Job.id = id)
      records
  in
  let kind id =
    match (find id).F.Record.status with
    | F.Record.Finished (Core.Run.Halted _) -> "halted"
    | F.Record.Finished (Core.Run.Fuel_exhausted _) -> "fuel"
    | F.Record.Finished (Core.Run.Deadlocked _) -> "deadlocked"
    | F.Record.Finished (Core.Run.Budget_exceeded _) -> "budget"
    | F.Record.Deadline_exceeded _ -> "deadline"
    | F.Record.Crashed _ -> "crashed"
    | F.Record.Rejected _ -> "rejected"
    | F.Record.Dropped _ -> "dropped"
  in
  Alcotest.(check string) "ok halts" "halted" (kind "ok");
  Alcotest.(check string) "deadlock classified" "deadlocked" (kind "deadlock");
  Alcotest.(check string) "budget classified" "budget" (kind "budget");
  Alcotest.(check string) "bad workload rejected" "rejected"
    (kind "reject-workload");
  Alcotest.(check string) "bank-inconsistent t500 rejected" "rejected"
    (kind "reject-banked");
  Alcotest.(check string) "deadline classified" "deadline" (kind "deadline");
  Alcotest.(check string) "fuel classified" "fuel" (kind "fuel");
  Alcotest.(check string) "planted crash classified" "crashed" (kind "crash");
  Alcotest.(check int) "crash exit code" 7
    (F.Record.exit_code (find "crash"));
  (* the crash carries the job spec for replay *)
  (match (find "crash").F.Record.status with
   | F.Record.Crashed { exn; _ } ->
     Alcotest.(check bool) "crash names the exception" true
       (String.length exn > 0)
   | _ -> Alcotest.fail "crash status");
  (* records come back in submission order *)
  List.iteri
    (fun i (r : F.Record.t) ->
      Alcotest.(check int) "submission order" i r.F.Record.job.F.Job.index)
    records

(* --- Retry accounting ----------------------------------------------------- *)

let test_deadline_retry_deterministic () =
  let line = {|{"workload":"minmax","id":"d","deadline_ms":0,"retries":3}|} in
  let records, _ = run_lines ~domains:1 [ line ] in
  match records with
  | [ r ] ->
    Alcotest.(check int) "attempts = 1 + retries" 4 r.F.Record.attempts;
    (match r.F.Record.status with
     | F.Record.Deadline_exceeded { deadline_ms } ->
       Alcotest.(check int) "deadline echoed" 0 deadline_ms
     | _ -> Alcotest.fail "expected deadline_exceeded");
    Alcotest.(check int) "deadline exit code" 6 (F.Record.exit_code r);
    (* a timed-out record carries no timing-dependent payload *)
    Alcotest.(check bool) "no stats" true (r.F.Record.stats = None)
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* --- Crash isolation recycles the worker --------------------------------- *)

let test_crash_recycling () =
  (* crash every third job; the ones in between must still succeed,
     on the same (recycled) worker domain *)
  let lines =
    List.init 9 (fun i ->
      Printf.sprintf {|{"workload":"minmax","id":"j%d"}|} i)
  in
  let hook (job : F.Job.t) =
    if job.F.Job.index mod 3 = 1 then failwith "boom"
  in
  let records, summary = run_lines ~hook ~domains:1 lines in
  Alcotest.(check int) "all jobs answered" 9 (List.length records);
  Alcotest.(check int) "three crashes" 3 summary.F.Record.crashed;
  Alcotest.(check int) "six fine" 6 summary.F.Record.ok

(* --- Strict spec validation ----------------------------------------------- *)

let test_spec_validation () =
  let expect_error line =
    match F.Job.of_line ~index:0 line with
    | Error e -> e
    | Ok _ -> Alcotest.failf "accepted bad spec %s" line
  in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "unknown key named" true
    (contains (expect_error {|{"workload":"minmax","fuell":3}|}) "fuell");
  Alcotest.(check bool) "missing payload" true
    (contains (expect_error {|{"id":"x"}|}) "payload");
  Alcotest.(check bool) "conflicting payload" true
    (contains
       (expect_error {|{"workload":"minmax","file":"x.xasm"}|})
       "exactly one");
  Alcotest.(check string) "duplicate key rejected" {|duplicate key "model"|}
    (expect_error {|{"workload":"minmax","model":"xsim","model":"vsim"}|});
  Alcotest.(check bool) "bad model" true
    (contains (expect_error {|{"workload":"minmax","model":"qsim"}|}) "model");
  Alcotest.(check bool) "bad budget" true
    (contains (expect_error {|{"workload":"minmax","budget":0}|}) "budget");
  Alcotest.(check bool) "bad JSON" true
    (contains (expect_error {|{"workload": |}) "bad JSON");
  (* a number an int cannot hold is rejected by key, never wrapped *)
  List.iter
    (fun (line, error) ->
      Alcotest.(check string) line error (expect_error line))
    [ ( {|{"workload":"minmax","seed":1e300}|},
        {|key "seed": expected an integer|} );
      ( {|{"workload":"minmax","deadline_ms":1e300}|},
        {|key "deadline_ms": expected an integer|} );
      ( {|{"workload":"minmax","seed":4611686018427387904.0}|},
        {|key "seed": expected an integer|} );
      ( {|{"workload":"minmax","budget":1e300}|},
        {|key "budget": expected an integer|} );
      ( {|{"workload":"minmax","regs":{"r1":1e300}}|},
        {|key "regs": r1 wants an integer|} );
      ( {|{"workload":"minmax","mem":{"16":-1e300}}|},
        {|key "mem": bad entry "16"|} ) ];
  Alcotest.(check int) "min_int seed accepted" min_int
    (job_of_line ~index:0
       {|{"workload":"minmax","seed":-4611686018427387904.0}|}).F.Job.seed;
  (* a record line round-trips through the JSON layer *)
  let records, _ =
    run_lines ~domains:1 [ {|{"workload":"minmax","id":"rt"}|} ]
  in
  match Ximd_json.parse (F.Record.to_json_string (List.hd records)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "record line is not valid JSON: %s" e

(* --- Machine-shape keys apply to every payload ---------------------------- *)

(* A workload job's shape keys reach its machine as a source job's do:
   each one changes LL1's run, and a shape [Config.make] refuses is a
   rejection. *)
let test_workload_shape_keys () =
  let records, _ =
    run_lines ~domains:1
      [ {|{"workload":"ll1"}|};
        {|{"workload":"ll1","latency":3}|};
        {|{"workload":"ll1","mem_words":4}|};
        {|{"workload":"ll1","ports":1,"distributed":true}|};
        {|{"workload":"ll1","latency":99}|} ]
  in
  let run (r : F.Record.t) =
    (F.Record.class_label r, r.F.Record.stats, r.F.Record.hazards,
     r.F.Record.check)
  in
  match records with
  | [ plain; latency; mem_words; distributed; bad ] -> (
    Alcotest.(check string) "plain LL1 halts clean" "ok"
      (F.Record.class_label plain);
    List.iter
      (fun (key, r) ->
        Alcotest.(check bool) (key ^ " changes the run") false
          (run r = run plain))
      [ ("latency", latency); ("mem_words", mem_words);
        ("ports+distributed", distributed) ];
    match bad.F.Record.status with
    | F.Record.Rejected { reason } ->
      Alcotest.(check string) "latency 99 rejected"
        "Config.make: result_latency must be in [1, 8]" reason
    | _ -> Alcotest.fail "latency 99 was not rejected")
  | rs -> Alcotest.failf "expected 5 records, got %d" (List.length rs)

(* --- Pool: ordering survives crashes, interrupt drains -------------------- *)

let test_pool_orders_and_drains () =
  let emitted = ref [] in
  let pool =
    F.Pool.create ~domains:4
      ~init:(fun _ -> ())
      ~work:(fun () ~seq:_ i ->
        if i mod 5 = 2 then failwith "worker down";
        (i, `Done))
      ~crashed:(fun ~seq:_ i ~exn:_ ~backtrace:_ -> (i, `Crashed))
      ~dropped:(fun ~seq:_ i -> (i, `Dropped))
      ~emit:(fun r -> emitted := r :: !emitted)
      ()
  in
  for i = 0 to 49 do
    Alcotest.(check bool) "accepted" true (F.Pool.submit pool i)
  done;
  F.Pool.join pool;
  let results = List.rev !emitted in
  Alcotest.(check int) "every job answered" 50 (List.length results);
  List.iteri
    (fun i (j, verdict) ->
      Alcotest.(check int) "emission order" i j;
      let expected = if i mod 5 = 2 then `Crashed else `Done in
      Alcotest.(check bool) "verdict" true (verdict = expected))
    results;
  Alcotest.(check int) "crashes counted" 10 (F.Pool.crashes pool);
  (* interrupt: accepted-but-unrun jobs surface as Dropped, nothing is
     silently lost, and further submissions are refused *)
  let emitted = ref [] in
  let gate = Atomic.make false in
  let pool =
    F.Pool.create ~domains:1
      ~init:(fun _ -> ())
      ~work:(fun () ~seq:_ i ->
        while not (Atomic.get gate) do Domain.cpu_relax () done;
        (i, `Done))
      ~crashed:(fun ~seq:_ i ~exn:_ ~backtrace:_ -> (i, `Crashed))
      ~dropped:(fun ~seq:_ i -> (i, `Dropped))
      ~emit:(fun r -> emitted := r :: !emitted)
      ()
  in
  for i = 0 to 9 do
    ignore (F.Pool.submit pool i)
  done;
  F.Pool.interrupt pool;
  Atomic.set gate true;
  Alcotest.(check bool) "submit refused after interrupt" false
    (F.Pool.submit pool 99);
  F.Pool.join pool;
  let results = List.rev !emitted in
  Alcotest.(check int) "all 10 accounted for" 10 (List.length results);
  let dropped =
    List.length (List.filter (fun (_, v) -> v = `Dropped) results)
  in
  Alcotest.(check bool) "queue drained as dropped" true (dropped >= 8);
  List.iteri (fun i (j, _) -> Alcotest.(check int) "order kept" i j) results

(* --- Pool: a raising emit releases the lock ------------------------------- *)

let test_pool_emit_raises () =
  let emitted = ref [] in
  let pool =
    F.Pool.create ~domains:1
      ~init:(fun _ -> ())
      ~work:(fun () ~seq:_ i -> i)
      ~crashed:(fun ~seq:_ i ~exn:_ ~backtrace:_ -> i)
      ~dropped:(fun ~seq:_ i -> i)
      ~emit:(fun i -> if i = 3 then raise Exit else emitted := i :: !emitted)
      ()
  in
  for i = 0 to 9 do
    ignore (F.Pool.submit pool i)
  done;
  (* join re-raises what ended the worker; a lock still held would
     block it or [crashes] forever *)
  (match F.Pool.join pool with
   | () -> Alcotest.fail "emit's exception was lost"
   | exception Exit -> ());
  Alcotest.(check int) "lock free again" 0 (F.Pool.crashes pool);
  Alcotest.(check (list int)) "emitted before the raise" [ 0; 1; 2 ]
    (List.rev !emitted)

(* --- QCheck: determinism for generated campaigns -------------------------- *)

let campaign_gen =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (oneof
         [ map
             (fun (w, seed) ->
               Printf.sprintf {|{"workload":"%s","seed":%d}|} w seed)
             (pair (oneofl [ "minmax"; "bitcount"; "tproc" ]) (int_bound 99));
           map
             (fun b ->
               Printf.sprintf {|{"workload":"matmul","budget":%d}|} (b + 1))
             (int_bound 200);
           return
             (Printf.sprintf {|{"source":"%s","id":"wedge"}|}
                (quote deadlock_source));
           return {|{"bad spec|} ]))

let prop_campaign_deterministic =
  QCheck.Test.make ~count:10
    ~name:"farm: result stream identical at 1/2/4 domains"
    (QCheck.make ~print:(String.concat "\n") campaign_gen) (fun lines ->
      let submit domains = serialise (fst (run_lines ~domains lines)) in
      let one = submit 1 in
      let two = submit 2 and four = submit 4 in
      let ok = two = one && four = one in
      if not ok then begin
        let dump name s =
          let oc = open_out ("/tmp/qfail-" ^ name ^ ".txt") in
          output_string oc s; close_out oc
        in
        dump "1" one; dump "2" two; dump "4" four
      end;
      ok)

(* --- Acceptance: 1000-job adversarial sweep ------------------------------ *)

(* The PR's acceptance bar: a 1000-job campaign seasoned with
   deadlocking, crashing, budget-busting, timing-out and malformed jobs
   completes with exactly one record per job, byte-identical across 1,
   2 and 4 domains and across two same-seed runs. *)
let acceptance_lines =
  List.init 1000 (fun i ->
    if i mod 97 = 13 then {|{"this line is not JSON|}
    else if i mod 10 = 3 then
      Printf.sprintf {|{"source":"%s","id":"wedge-%d"}|}
        (quote deadlock_source) i
    else if i mod 10 = 5 then
      Printf.sprintf {|{"workload":"matmul","id":"budget-%d","budget":%d}|} i
        ((i mod 7) + 1)
    else if i mod 10 = 7 then
      Printf.sprintf {|{"workload":"minmax","id":"crash-%d","seed":%d}|} i i
    else if i mod 23 = 0 then
      Printf.sprintf
        {|{"workload":"minmax","id":"deadline-%d","deadline_ms":0,"retries":%d}|}
        i (i mod 2)
    else
      Printf.sprintf
        {|{"workload":"minmax","id":"run-%d","seed":%d,"dump_regs":["r3"]}|}
        i i)

let test_acceptance_sweep () =
  let hook (job : F.Job.t) =
    if
      String.length job.F.Job.id >= 6
      && String.sub job.F.Job.id 0 6 = "crash-"
    then failwith "planted crash"
  in
  let submit domains = fst (run_lines ~hook ~domains acceptance_lines) in
  let one = submit 1 in
  Alcotest.(check int) "one record per job" 1000 (List.length one);
  let s = F.Record.summarise one in
  Alcotest.(check bool) "has deadlocks" true (s.F.Record.deadlocked > 50);
  Alcotest.(check bool) "has crashes" true (s.F.Record.crashed > 50);
  Alcotest.(check bool) "has budget hits" true
    (s.F.Record.budget_exceeded > 50);
  Alcotest.(check bool) "has rejects" true (s.F.Record.rejected >= 10);
  let baseline = serialise one in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "byte-identical at %d domains" domains)
        baseline
        (serialise (submit domains)))
    [ 2; 4 ];
  Alcotest.(check string) "byte-identical across runs" baseline
    (serialise (submit 2))

(* --- File payloads --------------------------------------------------------- *)

(* A job may name any file the server's user can read.  One that does
   not assemble is rejected naming the path and the line, and the
   record quotes none of the file's bytes. *)
let test_file_payload_quotes_nothing () =
  let marker = "ximd-farm-marker-7f3a91" in
  let path = Filename.temp_file "ximd-farm" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (marker ^ "\nsecond line\n"));
      match
        run_lines ~domains:1
          [ Printf.sprintf {|{"file":"%s","id":"leak"}|} (quote path) ]
      with
      | [ record ], _ -> (
        let json = F.Record.to_json_string record in
        if Tobs.contains_substring json marker then
          Alcotest.failf "the record quotes the file: %s" json;
        match record.F.Record.status with
        | F.Record.Rejected { reason } ->
          Alcotest.(check string) "reason"
            (path ^ ": line 1: not XIMD assembly")
            reason
        | _ -> Alcotest.failf "not rejected: %s" json)
      | records, _ ->
        Alcotest.failf "expected 1 record, got %d" (List.length records))

(* The reason a single [file] job is rejected with. *)
let file_rejection path =
  match
    run_lines ~domains:1 [ Printf.sprintf {|{"file":"%s"}|} (quote path) ]
  with
  | [ record ], _ -> (
    match record.F.Record.status with
    | F.Record.Rejected { reason } -> reason
    | _ -> Alcotest.failf "not rejected: %s" (F.Record.to_json_string record))
  | records, _ ->
    Alcotest.failf "expected 1 record, got %d" (List.length records)

(* A file that never ends is refused before it is opened, never read
   into the heap up to the input cap. *)
let test_endless_file_rejected () =
  Alcotest.(check string) "reason"
    "/dev/zero: line 0: /dev/zero: not a regular file"
    (file_rejection "/dev/zero")

(* Opening a FIFO for reading blocks until a writer comes, so a job
   naming one must be refused before [open(2)], or its worker waits
   forever. *)
let test_fifo_file_rejected () =
  let dir = Filename.temp_dir "ximd-farm" "" in
  let fifo = Filename.concat dir "jobs.fifo" in
  Unix.mkfifo fifo 0o600;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove fifo;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check string) "reason"
        (Printf.sprintf "%s: line 0: %s: not a regular file" fifo fifo)
        (file_rejection fifo))

(* A job's deadline counts from the moment its worker takes it, so
   parsing its payload is timed: about 4 MiB of comment lines take
   milliseconds to parse, which a 1 ms deadline does not cover, though
   the one-row program they precede halts in its first cycle. *)
let test_deadline_covers_parsing () =
  let source =
    ".fus 1\n"
    ^ String.concat ""
        (List.init 65536 (fun i ->
           Printf.sprintf "; %05d %s\n" i (String.make 55 '-')))
    ^ "[0] nop | halt\n"
  in
  match
    run_lines ~domains:1
      [ Printf.sprintf
          {|{"source":"%s","id":"slow-parse","deadline_ms":1,"retries":0}|}
          (quote source) ]
  with
  | [ r ], _ -> (
    match r.F.Record.status with
    | F.Record.Deadline_exceeded { deadline_ms } ->
      Alcotest.(check int) "deadline echoed" 1 deadline_ms;
      Alcotest.(check int) "one attempt" 1 r.F.Record.attempts
    | _ -> Alcotest.failf "not timed out: %s" (F.Record.to_json_string r))
  | rs, _ -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* A job spec and a conformance [; conf:] line read a shape key's value
   alike: the conf line takes the job's JSON text, and refuses what the
   job refuses with the same words. *)
let test_shape_keys_one_vocabulary () =
  List.iter
    (fun (key, value) ->
      let job =
        F.Job.of_line ~index:0
          (Printf.sprintf {|{"workload":"ll1",%S:%s}|} key value)
      in
      let conf =
        Result.bind
          (Ximd_gen.Conform.parse_directives
             (Printf.sprintf "; conf: %s=%s\n" key value))
          (Ximd_gen.Conform.config_of_directives ~n_fus:2)
      in
      let what = key ^ "=" ^ value in
      match (job, conf) with
      | Ok _, Ok _ -> ()
      | Error job, Error conf ->
        Alcotest.(check string) what ("line 1: conf " ^ job) conf
      | Ok _, Error e ->
        Alcotest.failf "%s: only the conf line refuses: %s" what e
      | Error e, Ok _ -> Alcotest.failf "%s: only the job refuses: %s" what e)
    [ ("max_cycles", "5"); ("max_cycles", "0"); ("max_cycles", "1.5");
      ("latency", "3"); ("latency", {|"3"|}); ("mem_words", "64");
      ("mem_words", "-64"); ("ports", "4"); ("ports", "true");
      ("distributed", "true"); ("distributed", "1");
      ("sequencer", {|"prototype"|}); ("sequencer", {|"fast"|});
      ("sequencer", "2") ];
  Alcotest.(check (list string)) "keys a conf line takes, besides models"
    Ximd_core.Config.shape_keys
    (List.filter (( <> ) "models")
       (List.map fst
          (Result.get_ok
             (Ximd_gen.Conform.parse_directives
                (Ximd_gen.Conform.directives_of_config
                   Ximd_core.Config.default)))))

(* Each retry sleeps up to 250 ms of backoff and any client of the
   server may send the line, so a job's retries are bounded: past the
   bound it is a rejected spec, never a worker held for hours. *)
let test_retries_capped () =
  Alcotest.(check int) "the bound itself is accepted" F.Job.max_retries
    (job_of_line ~index:0
       {|{"workload":"tproc","deadline_ms":0,"retries":10}|})
      .F.Job.retries;
  List.iter
    (fun n ->
      let line =
        Printf.sprintf {|{"workload":"tproc","deadline_ms":0,"retries":%d}|}
          n
      in
      match F.Job.of_line ~index:0 line with
      | Error e ->
        Alcotest.(check string) line
          (Printf.sprintf {|key "retries": must be at most 10 (got %d)|} n)
          e
      | Ok _ -> Alcotest.failf "accepted %s" line)
    [ 11; 1_000_000 ];
  match run_lines ~domains:1 [ {|{"workload":"tproc","retries":11}|} ] with
  | [ { F.Record.status = F.Record.Rejected { reason }; _ } ], _ ->
    Alcotest.(check string) "a rejected record"
      {|key "retries": must be at most 10 (got 11)|} reason
  | _ -> Alcotest.fail "expected one rejected record"

let to_alcotest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "farm",
      [ Alcotest.test_case "determinism across domain counts" `Quick
          test_determinism_across_domains;
        Alcotest.test_case "one record per job (crash/deadlock/budget)"
          `Quick test_one_record_per_job;
        Alcotest.test_case "deadline retries are deterministic" `Quick
          test_deadline_retry_deterministic;
        Alcotest.test_case "a job's retries are capped" `Quick
          test_retries_capped;
        Alcotest.test_case "crash isolation recycles the worker" `Quick
          test_crash_recycling;
        Alcotest.test_case "strict spec validation" `Quick
          test_spec_validation;
        Alcotest.test_case "pool orders results and drains on interrupt"
          `Quick test_pool_orders_and_drains;
        Alcotest.test_case "pool releases its lock when emit raises" `Quick
          test_pool_emit_raises;
        Alcotest.test_case "1000-job adversarial sweep is deterministic"
          `Slow test_acceptance_sweep;
        to_alcotest prop_campaign_deterministic;
        Alcotest.test_case "workload jobs apply machine-shape keys" `Quick
          test_workload_shape_keys;
        Alcotest.test_case "file payloads quote no file bytes" `Quick
          test_file_payload_quotes_nothing;
        Alcotest.test_case "an endless file job is rejected" `Quick
          test_endless_file_rejected;
        Alcotest.test_case "shape keys read alike in jobs and conf lines"
          `Quick test_shape_keys_one_vocabulary;
        Alcotest.test_case "a FIFO file job is rejected unopened" `Quick
          test_fifo_file_rejected;
        Alcotest.test_case "a job's deadline covers parsing its payload"
          `Quick test_deadline_covers_parsing ] ) ]
