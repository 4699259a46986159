(* Campaign telemetry: logical rollup byte-stability across domain
   counts and repeat runs, telemetry transparency (the result stream
   must not change when observed), account conservation between the
   engine's slot taxonomy and the per-job Stats, the progress
   heartbeat, the Chrome export, and the events_dropped metric. *)

module F = Ximd_farm
module Obs = Ximd_obs

let wall = Unix.gettimeofday

(* Submit raw spec lines (the generator plants malformed ones on
   purpose — they must flow through as pre-rejected jobs, exactly as
   ximd-serve would handle them). *)
let run_lines ?obs ~domains lines =
  let acc = ref [] in
  let farm = F.Farm.create ~domains ?obs ~emit:(fun r -> acc := r :: !acc) () in
  List.iter (fun line -> ignore (F.Farm.submit_line farm line)) lines;
  F.Farm.join farm;
  List.rev !acc

let run_lines_obs ?(progress_every = 0) ?(progress = fun _ -> ()) ~domains
    lines =
  let obs =
    Obs.Farmobs.create ~progress_every ~progress ~clock:wall ()
  in
  let records = run_lines ~obs ~domains lines in
  (obs, records, F.Record.summarise records)

(* --- Logical rollup: byte-stable across domains and repeat runs ---------- *)

let test_logical_rollup_stable () =
  let obs1, records, summary = run_lines_obs ~domains:1 Tfarm.mixed_lines in
  let baseline = Obs.Farmobs.logical_json obs1 in
  List.iter
    (fun domains ->
      let obs, _, _ = run_lines_obs ~domains Tfarm.mixed_lines in
      Alcotest.(check string)
        (Printf.sprintf "logical view byte-identical at %d domains" domains)
        baseline
        (Obs.Farmobs.logical_json obs))
    [ 2; 4 ];
  let obs_again, _, _ = run_lines_obs ~domains:2 Tfarm.mixed_lines in
  Alcotest.(check string) "logical view byte-identical across runs" baseline
    (Obs.Farmobs.logical_json obs_again);
  (* the rollup is exactly three lines, line 2 the logical view: the CI
     smoke extracts it with `sed -n 2p` and diffs repeat runs *)
  (match String.split_on_char '\n' (Obs.Farmobs.rollup_json obs1) with
   | [ header; logical; _fleet; "" ] ->
     Alcotest.(check string) "rollup header"
       "{\"schema\":\"ximd-campaign/1\"," header;
     Alcotest.(check string) "rollup line 2 is the logical view"
       ("\"logical\":" ^ baseline ^ ",") logical
   | lines ->
     Alcotest.failf "rollup is %d lines, expected 3" (List.length lines - 1));
  (* the logical aggregates agree with the records they summarise *)
  Alcotest.(check int) "one span per record" (List.length records)
    (List.length (Obs.Farmobs.spans obs1));
  Alcotest.(check int) "completed = jobs" summary.F.Record.jobs
    (Obs.Farmobs.completed obs1);
  let expected_cycles =
    List.fold_left
      (fun acc (r : F.Record.t) ->
        match r.F.Record.stats with
        | Some s -> acc + s.F.Record.cycles
        | None -> acc)
      0 records
  in
  Alcotest.(check int) "total_cycles sums finished records" expected_cycles
    (Obs.Farmobs.total_cycles obs1);
  List.iter2
    (fun (r : F.Record.t) (s : Obs.Span.t) ->
      Alcotest.(check string) "span outcome is the record's class"
        (F.Record.class_label r)
        s.Obs.Span.result.Obs.Span.label;
      Alcotest.(check int) "span attempts" r.F.Record.attempts
        s.Obs.Span.attempts)
    records (Obs.Farmobs.spans obs1);
  (* fleet facts exist even if their values are timing-dependent *)
  Alcotest.(check bool) "queue saw depth" true
    (Obs.Farmobs.queue_depth_high_water obs1 >= 1);
  let hits, misses = Obs.Farmobs.session_cache_stats obs1 in
  Alcotest.(check bool) "cache lookups recorded" true (hits + misses > 0);
  Alcotest.(check bool) "cache misses recorded" true (misses >= 1)

(* --- Transparency: telemetry must not change the result stream ----------- *)

let prop_telemetry_transparent =
  QCheck.Test.make ~count:8
    ~name:"farmobs: result stream identical with telemetry on vs off"
    (QCheck.make
       ~print:(String.concat "\n")
       Tfarm.campaign_gen)
    (fun lines ->
      List.for_all
        (fun domains ->
          let plain = run_lines ~domains lines in
          let obs = Obs.Farmobs.create ~clock:wall () in
          let observed = run_lines ~obs ~domains lines in
          Tfarm.serialise plain = Tfarm.serialise observed)
        [ 1; 2; 4 ])

(* --- Account conservation ------------------------------------------------ *)

(* Two independent tallies of the same machine: the engine classifies
   every fu-cycle slot into the account taxonomy (merged per job into
   the campaign), and the per-job Stats count cycles.  For every
   finished job, slots = cycles x n_fus — so the merged campaign
   account must conserve against the sum over finished spans. *)
let prop_account_conservation =
  QCheck.Test.make ~count:8
    ~name:"farmobs: merged account conserves against per-job stats"
    (QCheck.make
       ~print:(String.concat "\n")
       Tfarm.campaign_gen)
    (fun lines ->
      let obs = Obs.Farmobs.create ~clock:wall () in
      let (_ : F.Record.t list) = run_lines ~obs ~domains:3 lines in
      let expected_slots =
        List.fold_left
          (fun acc (s : Obs.Span.t) ->
            acc + (s.Obs.Span.cycles * s.Obs.Span.n_fus))
          0 (Obs.Farmobs.spans obs)
      in
      let class_sum =
        List.fold_left
          (fun acc (_, n) -> acc + n)
          0
          (Obs.Farmobs.account_totals obs)
      in
      Obs.Farmobs.account_slots obs = expected_slots
      && class_sum = expected_slots)

(* --- Deterministic span assembly under a fake clock ---------------------- *)

(* Drive the hooks directly with a hand-cranked clock: phase durations,
   heartbeat contents and the Chrome export become exact. *)
let fake_clock start =
  let now = ref start in
  let tick dt = now := !now +. dt in
  let clock () = !now in
  (clock, tick)

let test_fake_clock_spans_and_heartbeat () =
  let clock, tick = fake_clock 1000. in
  let beats = ref [] in
  let o =
    Obs.Farmobs.create ~progress_every:2
      ~progress:(fun line -> beats := line :: !beats)
      ~clock ()
  in
  let ok = Obs.Span.outcome ~label:"ok" ~quality:Obs.Span.Good in
  for seq = 0 to 3 do
    Obs.Farmobs.on_enqueue o ~seq ~depth:(seq + 1)
  done;
  for seq = 0 to 3 do
    tick 0.010;
    Obs.Farmobs.on_dequeue o ~seq ~domain:(seq mod 2) ~depth:(3 - seq);
    tick 0.005;
    Obs.Farmobs.on_session_ready o ~seq ~cache_hit:(seq > 0);
    (if seq = 3 then begin
       Obs.Farmobs.on_retry o ~seq ~attempt:1;
       tick 0.002
     end);
    tick 0.020;
    Obs.Farmobs.on_complete o ~seq
      ~id:(Printf.sprintf "j%d" seq)
      ~result:ok ~attempts:(if seq = 3 then 2 else 1) ~cycles:100 ~n_fus:4 ();
    tick 0.001;
    Obs.Farmobs.on_emit o ~seq
  done;
  let spans = Obs.Farmobs.spans o in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  let s0 = List.hd spans in
  Alcotest.(check (float 1e-9)) "queue wait" 0.010 (Obs.Span.queue_wait s0);
  Alcotest.(check (float 1e-9)) "session time" 0.005
    (Obs.Span.session_time s0);
  Alcotest.(check (float 1e-9)) "run time" 0.020 (Obs.Span.run_time s0);
  Alcotest.(check (float 1e-9)) "reorder wait" 0.001
    (Obs.Span.reorder_wait s0);
  let s3 = List.nth spans 3 in
  Alcotest.(check int) "retry counted" 1 s3.Obs.Span.retries;
  Alcotest.(check int) "retry marker recorded" 1
    (List.length s3.Obs.Span.markers);
  Alcotest.(check int) "high-water depth" 4
    (Obs.Farmobs.queue_depth_high_water o);
  Alcotest.(check (pair int int)) "cache stats" (3, 1)
    (Obs.Farmobs.session_cache_stats o);
  (* heartbeats fired after jobs 2 and 4; the logical prefix (counts
     and outcome tallies) is deterministic — only the trailing elapsed
     and rate fields carry clock arithmetic *)
  let prefix line =
    match String.index_opt line ',' with
    | Some _ -> (
      match String.split_on_char ',' line with
      | schema :: completed :: submitted :: outcomes :: _ ->
        String.concat "," [ schema; completed; submitted; outcomes ]
      | _ -> line)
    | None -> line
  in
  match List.rev !beats with
  | [ b1; b2 ] ->
    Alcotest.(check string) "first heartbeat"
      "{\"schema\":\"ximd-progress/1\",\"completed\":2,\"submitted\":4,\
       \"outcomes\":{\"ok\":2}"
      (prefix b1);
    Alcotest.(check string) "second heartbeat"
      "{\"schema\":\"ximd-progress/1\",\"completed\":4,\"submitted\":4,\
       \"outcomes\":{\"ok\":4}"
      (prefix b2)
  | beats -> Alcotest.failf "expected 2 heartbeats, got %d" (List.length beats)

let test_chrome_export () =
  let clock, tick = fake_clock 0. in
  let o = Obs.Farmobs.create ~clock () in
  let bad = Obs.Span.outcome ~label:"crashed" ~quality:Obs.Span.Bad in
  let ok = Obs.Span.outcome ~label:"ok" ~quality:Obs.Span.Good in
  List.iter
    (fun seq ->
      Obs.Farmobs.on_enqueue o ~seq ~depth:(seq + 1))
    [ 0; 1 ];
  tick 0.001;
  Obs.Farmobs.on_dequeue o ~seq:0 ~domain:0 ~depth:1;
  Obs.Farmobs.on_session_ready o ~seq:0 ~cache_hit:false;
  tick 0.002;
  Obs.Farmobs.on_complete o ~seq:0 ~id:"good-job" ~result:ok ~attempts:1
    ~cycles:10 ~n_fus:2 ();
  Obs.Farmobs.on_emit o ~seq:0;
  tick 0.001;
  Obs.Farmobs.on_dequeue o ~seq:1 ~domain:1 ~depth:0;
  tick 0.001;
  Obs.Farmobs.on_complete o ~seq:1 ~id:"bad-job" ~result:bad ~attempts:1 ();
  Obs.Farmobs.on_emit o ~seq:1;
  let trace = Obs.Farmobs.chrome_json o in
  (match Ximd_json.parse trace with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e);
  let contains needle =
    let nl = String.length needle and hl = String.length trace in
    let rec go i =
      i + nl <= hl && (String.sub trace i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "domain tracks named" true
    (contains "\"domain 0\"" && contains "\"domain 1\"");
  Alcotest.(check bool) "queue depth counter track" true
    (contains "\"queue_depth\"");
  Alcotest.(check bool) "good slice coloured good" true
    (contains "\"cname\":\"good\"");
  Alcotest.(check bool) "bad slice coloured terrible" true
    (contains "\"cname\":\"terrible\"");
  Alcotest.(check bool) "failure instant" true
    (contains "\"crashed\"");
  Alcotest.(check bool) "session sub-slice" true
    (contains "\"session-build\"")

(* --- events_dropped: ring overflow surfaces as a metric ------------------ *)

(* A one-FU spin loop fetches once a cycle, so a 70,000-cycle run
   pushes 70,001 events (its fetches and the initial partition) through
   the sink's 65,536-event ring. *)
let test_events_dropped_metric () =
  let program =
    match Ximd_asm.Source.parse ".fus 1\nspin:\n  [0] nop | -> spin\n" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e
  in
  let sink =
    Obs.Sink.create ~profile:false ~account:false ~n_fus:1 ~code_len:1 ()
  in
  let session =
    Ximd_core.Session.create
      ~config:(Ximd_core.Config.make ~n_fus:1 ~max_cycles:70_000 ())
      ~obs:sink ~model:Ximd_core.Engine.Per_fu program
  in
  ignore (Ximd_core.Session.run session);
  let dropped = Obs.Sink.dropped_events sink in
  Alcotest.(check int) "ring dropped oldest" 4_465 dropped;
  let c = Obs.Metrics.counter (Obs.Sink.metrics sink) "events_dropped" in
  Alcotest.(check int) "metric mirrors the ring" dropped
    c.Obs.Metrics.c_value;
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i =
      i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "events_dropped in ximd-metrics/1 registry" true
    (contains
       (Ximd_json.to_string (Obs.Sink.metrics_json sink))
       "\"events_dropped\":4465");
  (* a campaign merge carries the loss figure along *)
  let merged = Obs.Metrics.create () in
  Obs.Metrics.merge ~into:merged (Obs.Sink.metrics sink);
  Obs.Metrics.merge ~into:merged (Obs.Sink.metrics sink);
  let m = Obs.Metrics.counter merged "events_dropped" in
  Alcotest.(check int) "drops sum across jobs" (2 * dropped)
    m.Obs.Metrics.c_value

let to_alcotest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "farmobs",
      [ Alcotest.test_case "logical rollup byte-stable at 1/2/4 domains"
          `Quick test_logical_rollup_stable;
        Alcotest.test_case "fake-clock spans and progress heartbeat" `Quick
          test_fake_clock_spans_and_heartbeat;
        Alcotest.test_case "chrome trace export" `Quick test_chrome_export;
        Alcotest.test_case "events_dropped metric mirrors the ring" `Quick
          test_events_dropped_metric;
        to_alcotest prop_telemetry_transparent;
        to_alcotest prop_account_conservation ] ) ]
