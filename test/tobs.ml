(* The observability layer: ring buffer, histogram bucketing, timeline
   reconstruction, exporter stability, and — the property the whole
   design hangs on — that attaching a sink never changes a run. *)

module Core = Ximd_core
module Obs = Ximd_obs
module W = Ximd_workloads

let check_int = Alcotest.(check int)

let contains_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* --- Ring ---------------------------------------------------------------- *)

let test_ring () =
  let r = Obs.Ring.create ~capacity:4 ~dummy:0 in
  check_int "empty" 0 (Obs.Ring.length r);
  List.iter (fun v -> Obs.Ring.push r v) [ 1; 2; 3; 4; 5; 6 ];
  check_int "full" 4 (Obs.Ring.length r);
  check_int "dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 3; 4; 5; 6 ]
    (Obs.Ring.to_list r);
  Obs.Ring.clear r;
  check_int "cleared" 0 (Obs.Ring.length r);
  check_int "cleared dropped" 0 (Obs.Ring.dropped r)

(* --- Histogram bucketing ------------------------------------------------- *)

let test_bucket_index () =
  List.iter
    (fun (v, expected) ->
      check_int (Printf.sprintf "bucket_index %d" v) expected
        (Obs.Metrics.bucket_index v))
    [ (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11) ];
  (* Every positive value lands in the bucket that covers it. *)
  for v = 1 to 5000 do
    let i = Obs.Metrics.bucket_index v in
    if not (Obs.Metrics.bucket_lo i <= v && v <= Obs.Metrics.bucket_hi i)
    then
      Alcotest.failf "value %d outside bucket %d: [%d, %d]" v i
        (Obs.Metrics.bucket_lo i) (Obs.Metrics.bucket_hi i)
  done

let test_histogram_observe () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "t" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 4 ];
  Alcotest.(check (float 0.0001)) "mean" 2.5 (Obs.Metrics.mean h);
  check_int "p25 = hi of bucket [1,1]" 1 (Obs.Metrics.quantile h 0.25);
  check_int "p50 = hi of bucket [2,3]" 3 (Obs.Metrics.quantile h 0.5);
  check_int "p100 clamps to max" 4 (Obs.Metrics.quantile h 1.0);
  Obs.Metrics.reset reg;
  check_int "reset count" 0 h.Obs.Metrics.h_count;
  check_int "reset quantile" 0 (Obs.Metrics.quantile h 0.5)

(* --- Timeline reconstruction --------------------------------------------- *)

let interval members start_cycle stop_cycle =
  { Obs.Timeline.members; start_cycle; stop_cycle }

let check_timeline what expected got =
  Alcotest.(check int) (what ^ " count") (List.length expected)
    (List.length got);
  List.iteri
    (fun i ((e : Obs.Timeline.interval), (g : Obs.Timeline.interval)) ->
      let where fmt = Printf.sprintf "%s[%d] %s" what i fmt in
      Alcotest.(check (list int)) (where "members") e.members g.members;
      check_int (where "start") e.start_cycle g.start_cycle;
      check_int (where "stop") e.stop_cycle g.stop_cycle)
    (List.combine expected got)

let test_timeline_fork_join () =
  let history =
    [ (0, [ [ 0; 1; 2 ] ]); (3, [ [ 0; 1 ]; [ 2 ] ]); (5, [ [ 0; 1; 2 ] ]) ]
  in
  check_timeline "fork/join"
    [ interval [ 0; 1; 2 ] 0 3;
      interval [ 0; 1 ] 3 5;
      interval [ 2 ] 3 5;
      interval [ 0; 1; 2 ] 5 8 ]
    (Obs.Timeline.reconstruct ~final_cycle:8 history)

let test_timeline_survivor_stays_open () =
  (* {0} survives the cycle-2 repartition, so its interval must not be
     split there. *)
  let history = [ (0, [ [ 0 ]; [ 1; 2 ] ]); (2, [ [ 0 ]; [ 1 ]; [ 2 ] ]) ] in
  check_timeline "survivor"
    [ interval [ 0 ] 0 4;
      interval [ 1; 2 ] 0 2;
      interval [ 1 ] 2 4;
      interval [ 2 ] 2 4 ]
    (Obs.Timeline.reconstruct ~final_cycle:4 history)

let test_timeline_empty () =
  check_timeline "empty" [] (Obs.Timeline.reconstruct ~final_cycle:9 [])

(* --- JSON helpers (the shared parser) ----------------------------------- *)

let parse_json s =
  match Ximd_json.parse s with
  | Ok json -> json
  | Error e -> Alcotest.failf "invalid JSON: %s" e

let check_schema schema s =
  Alcotest.(check (option string)) schema (Some schema)
    (Option.bind (Ximd_json.member "schema" (parse_json s)) Ximd_json.to_str)

(* --- Chrome trace golden (Figure 10 program) ----------------------------- *)

let observed_paper_run () =
  let variant = W.Minmax.paper_variant () in
  let sink =
    Obs.Sink.create ~n_fus:variant.config.n_fus
      ~code_len:(Core.Program.length variant.program)
      ()
  in
  let tracer = Core.Tracer.create () in
  let _outcome, _state = W.Workload.run ~tracer ~obs:sink variant in
  (sink, tracer)

let test_chrome_trace_stable_and_valid () =
  let sink1, _ = observed_paper_run () in
  let sink2, _ = observed_paper_run () in
  let json1 = Obs.Chrome.to_string sink1 in
  let json2 = Obs.Chrome.to_string sink2 in
  Alcotest.(check string) "byte-stable across runs" json1 json2;
  ignore (parse_json json1);
  List.iter
    (fun needle ->
      if not (contains_substring json1 needle) then
        Alcotest.failf "missing %S" needle)
    [ "\"traceEvents\"";
      "FU0";
      "SSET led by FU0";
      "live_streams";
      "\"final_cycle\":14" ]

(* The per-cycle partition implied by the sink's change points must match
   the Figure-10 golden tracer's partition column, cycle for cycle. *)
let test_partition_track_matches_tracer () =
  let sink, tracer = observed_paper_run () in
  let history = Obs.Sink.partition_history sink in
  let partition_at cycle =
    List.fold_left
      (fun acc (cy, ssets) -> if cy <= cycle then Some ssets else acc)
      None history
  in
  List.iter
    (fun (row : Core.Tracer.row) ->
      match partition_at row.cycle with
      | None -> Alcotest.failf "no partition recorded by cycle %d" row.cycle
      | Some ssets ->
        Alcotest.(check string)
          (Printf.sprintf "partition at cycle %d" row.cycle)
          (Core.Partition.to_string row.partition)
          (Core.Partition.to_string (Core.Partition.of_ssets ssets)))
    (Core.Tracer.rows tracer)

(* --- Metrics JSON -------------------------------------------------------- *)

let test_metrics_json_valid () =
  let sink, _ = observed_paper_run () in
  let json = Ximd_json.to_string (Obs.Sink.metrics_json sink) in
  check_schema "ximd-metrics/1" json;
  let sink2, _ = observed_paper_run () in
  Alcotest.(check string) "byte-stable" json
    (Ximd_json.to_string (Obs.Sink.metrics_json sink2))

(* --- Zero interference: observed run = unobserved run -------------------- *)

let prop_obs_transparent =
  QCheck2.Test.make ~count:150
    ~name:"attaching a sink never changes outcome or stats"
    Tprops.gen_valid_program (fun program ->
      let n_fus = Core.Program.n_fus program in
      let config =
        Core.Config.make ~n_fus ~max_cycles:300
          ~hazard_policy:Ximd_machine.Hazard.Record ()
      in
      let run obs =
        let session =
          Core.Session.create ~config ?obs ~model:Core.Engine.Per_fu program
        in
        let outcome = Core.Session.run session in
        let state = Core.Session.state session in
        (outcome, Core.Stats.copy state.stats,
         Ximd_machine.Regfile.dump state.regs)
      in
      let o1, s1, r1 = run None in
      let sink =
        Obs.Sink.create ~n_fus ~code_len:(Core.Program.length program) ()
      in
      let o2, s2, r2 = run (Some sink) in
      o1 = o2 && s1 = s2 && Array.for_all2 Ximd_isa.Value.equal r1 r2)

(* --- effective_utilisation ----------------------------------------------- *)

let test_effective_utilisation () =
  let s = Core.Stats.create () in
  s.cycles <- 10;
  s.data_ops <- 5;
  s.spin_slots <- 10;
  Alcotest.(check (float 0.0001)) "raw counts spin slots" 0.25
    (Core.Stats.utilisation s ~n_fus:2);
  Alcotest.(check (float 0.0001)) "effective excludes spin slots" 0.5
    (Core.Stats.effective_utilisation s ~n_fus:2);
  s.spin_slots <- 20;
  Alcotest.(check (float 0.0001)) "all-spin run guards to 0" 0.
    (Core.Stats.effective_utilisation s ~n_fus:2);
  s.spin_slots <- 0;
  Alcotest.(check (float 0.0001)) "spin-free equals raw"
    (Core.Stats.utilisation s ~n_fus:2)
    (Core.Stats.effective_utilisation s ~n_fus:2)

(* --- Exit-code table: README and Run.exit_codes agree -------------------- *)

let test_readme_exit_codes () =
  let ic = open_in "../README.md" in
  let len = in_channel_length ic in
  let readme = really_input_string ic len in
  close_in ic;
  (* Collapse whitespace runs and drop markdown backticks so the table
     can wrap lines in the prose. *)
  let buf = Buffer.create len in
  let last_space = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' ->
        if not !last_space then Buffer.add_char buf ' ';
        last_space := true
      | '`' -> ()
      | c ->
        last_space := false;
        Buffer.add_char buf c)
    readme;
  let flat = Buffer.contents buf in
  List.iter
    (fun (code, meaning) ->
      let needle = Printf.sprintf "%d %s" code meaning in
      if not (contains_substring flat needle) then
        Alcotest.failf "README does not document exit code %d as %S" code
          meaning)
    Core.Run.exit_codes

let test_exit_code_of_outcome () =
  check_int "halted" 0 (Core.Run.exit_code (Core.Run.Halted { cycles = 1 }));
  check_int "fuel" 3
    (Core.Run.exit_code (Core.Run.Fuel_exhausted { cycles = 1 }));
  check_int "deadlock" 4
    (Core.Run.exit_code (Core.Run.Deadlocked { cycles = 1; spinning = [] }));
  check_int "budget" 6
    (Core.Run.exit_code (Core.Run.Budget_exceeded { cycles = 7; budget = 7 }));
  check_int "job crashed" 7 Core.Run.job_crashed_exit_code

(* --- Sink reset reuse ---------------------------------------------------- *)

let test_sink_reset_reuse () =
  let variant = (W.Minmax.make ()).W.Workload.ximd in
  let sink =
    Obs.Sink.create ~n_fus:variant.config.n_fus
      ~code_len:(Core.Program.length variant.program)
      ()
  in
  let _ = W.Workload.run ~obs:sink variant in
  let first = Ximd_json.to_string (Obs.Sink.metrics_json sink) in
  Obs.Sink.reset sink;
  check_int "events cleared" 0 (List.length (Obs.Sink.events sink));
  let _ = W.Workload.run ~obs:sink variant in
  Alcotest.(check string) "identical after reset+rerun" first
    (Ximd_json.to_string (Obs.Sink.metrics_json sink))

let suite =
  [ ( "obs",
      [ Alcotest.test_case "ring drops oldest" `Quick test_ring;
        Alcotest.test_case "histogram bucket index" `Quick test_bucket_index;
        Alcotest.test_case "histogram observe/quantile" `Quick
          test_histogram_observe;
        Alcotest.test_case "timeline fork/join" `Quick test_timeline_fork_join;
        Alcotest.test_case "timeline survivor stays open" `Quick
          test_timeline_survivor_stays_open;
        Alcotest.test_case "timeline empty history" `Quick test_timeline_empty;
        Alcotest.test_case "chrome trace stable and valid" `Quick
          test_chrome_trace_stable_and_valid;
        Alcotest.test_case "partition track matches figure-10 tracer" `Quick
          test_partition_track_matches_tracer;
        Alcotest.test_case "metrics json valid and stable" `Quick
          test_metrics_json_valid;
        Alcotest.test_case "effective utilisation" `Quick
          test_effective_utilisation;
        Alcotest.test_case "README exit-code table matches Run.exit_codes"
          `Quick test_readme_exit_codes;
        Alcotest.test_case "outcome exit codes" `Quick
          test_exit_code_of_outcome;
        Alcotest.test_case "sink reset reuse" `Quick test_sink_reset_reuse;
        QCheck_alcotest.to_alcotest prop_obs_transparent ] ) ]
