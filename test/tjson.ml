(* The shared JSON module: printer edge cases, and every machine-readable
   artifact the repository writes parsing back through the one parser
   with its schema tag (or trace event list) intact. *)

module J = Ximd_json
module Core = Ximd_core
module Obs = Ximd_obs
module F = Ximd_farm
module W = Ximd_workloads

let check_str = Alcotest.(check string)

(* --- Printer ------------------------------------------------------------- *)

let test_non_finite_is_null () =
  List.iter
    (fun (what, v) -> check_str what "null" (J.to_string v))
    [ ("nan", J.Float nan);
      ("infinity", J.Float infinity);
      ("-infinity", J.Float neg_infinity);
      ("fixed nan", J.Fixed (3, nan)) ];
  check_str "inside a document" {|{"x":[null,1.50,0.1000]}|}
    (J.to_string
       (J.Obj
          [ ( "x",
              J.List [ J.Float nan; J.Fixed (2, 1.5); J.Fixed (4, 0.1) ] ) ]))

let test_round_trip () =
  let v =
    J.Obj
      [ ("s", J.String "tab\t quote\" nl\n cr\r \001 back\\slash");
        ("i", J.Int (-3));
        ("f", J.Float 0.1);
        ("l", J.List [ J.Bool true; J.Null; J.Obj [] ]) ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.failf "printer output does not parse: %s" e

(* --- Every artifact parses back ------------------------------------------ *)

let parse = Tobs.parse_json
let check_schema = Tobs.check_schema

let check_trace what s =
  match J.member "traceEvents" (parse s) with
  | Some (J.List (_ :: _ as events)) ->
    List.iter
      (fun e ->
        if Option.bind (J.member "ph" e) J.to_str = None then
          Alcotest.failf "%s: event without a phase" what)
      events
  | _ -> Alcotest.failf "%s: no traceEvents list" what

let test_simulator_artifacts () =
  let variant = W.Minmax.paper_variant () in
  let sink =
    Obs.Sink.create ~critpath:true ~n_fus:variant.config.n_fus
      ~code_len:(Core.Program.length variant.program)
      ()
  in
  let outcome, state = W.Workload.run ~obs:sink variant in
  let cycles = state.Core.State.stats.cycles in
  check_schema "ximd-account/1"
    (J.to_string
       (Obs.Account.to_json (Option.get (Obs.Sink.account sink)) ~cycles));
  check_schema "ximd-critpath/1"
    (J.to_string
       (Obs.Critpath.to_json
          (Option.get (Obs.Sink.critpath sink))
          ~realised:cycles));
  check_schema "ximd-metrics/1" (J.to_string (Obs.Sink.metrics_json sink));
  check_trace "simulator trace" (Obs.Chrome.to_string sink);
  let postmortem =
    parse
      (J.to_string
         (Ximd_report.Diagnostics.to_json
            (Ximd_report.Diagnostics.collect state ~outcome)))
  in
  Alcotest.(check (option string)) "postmortem outcome"
    (Some (Core.Run.kind outcome))
    (Option.bind (J.member "outcome" postmortem) (fun o ->
       Option.bind (J.member "kind" o) J.to_str));
  match Ximd_report.Compare.of_workload (W.Minmax.make ()) with
  | Ok t ->
    check_schema "ximd-compare/1" (J.to_string (Ximd_report.Compare.to_json t))
  | Error e -> Alcotest.failf "compare: %s" e

let test_compiler_artifacts () =
  let obs, _ = Tschedobs.compile_observed (Tschedobs.dot_source ()) in
  check_schema "ximd-sched/1" (Ximd_compiler.Schedobs.to_json obs);
  check_trace "compiler trace" (Ximd_compiler.Schedobs.to_chrome obs)

let test_campaign_artifacts () =
  let beats = ref [] in
  let obs, records, summary =
    Tfarmobs.run_lines_obs ~progress_every:1
      ~progress:(fun line -> beats := line :: !beats)
      ~domains:1 Tfarm.mixed_lines
  in
  Alcotest.(check int) "one heartbeat per record" (List.length records)
    (List.length !beats);
  List.iter (check_schema "ximd-progress/1") !beats;
  List.iter
    (fun r -> check_schema "ximd-result/1" (F.Record.to_json_string r))
    records;
  check_schema "ximd-campaign/1" (Obs.Farmobs.rollup_json obs);
  check_trace "campaign trace" (Obs.Farmobs.chrome_json obs);
  let metrics = Obs.Metrics.to_json (Obs.Farmobs.merged_metrics obs) in
  let line = F.Record.summary_to_json_string ~metrics summary in
  check_schema "ximd-summary/1" line;
  Alcotest.(check bool) "summary embeds the merged Metrics value" true
    (J.member "metrics" (parse line) = Some (parse (J.to_string metrics)))

let suite =
  [ ( "json",
      [ Alcotest.test_case "non-finite numbers print as null" `Quick
          test_non_finite_is_null;
        Alcotest.test_case "printer output round-trips" `Quick test_round_trip;
        Alcotest.test_case "simulator artifacts parse back" `Quick
          test_simulator_artifacts;
        Alcotest.test_case "compiler artifacts parse back" `Quick
          test_compiler_artifacts;
        Alcotest.test_case "campaign artifacts parse back" `Quick
          test_campaign_artifacts ] ) ]
