(* Benchmark harness.

   Usage:
     bench/main.exe                 — regenerate every paper figure/table
     bench/main.exe e2 e5          — run selected experiments (f7, e1..e7)
     bench/main.exe micro          — Bechamel micro-benchmarks of the
                                     simulators, assembler and compiler
     bench/main.exe micro minmax   — micro-benchmarks of one workload
     bench/main.exe json           — measure simulator throughput and
                                     write BENCH_simulator.json
     bench/main.exe json minmax    — same, restricted to one workload
     bench/main.exe all micro      — everything

   BENCH_QUOTA=<seconds> shortens or lengthens the per-test measurement
   quota (default 0.5 s) — CI uses a short quota as a smoke test. *)

module W = Ximd_workloads
module C = Ximd_compiler

let quota_seconds () =
  match Sys.getenv_opt "BENCH_QUOTA" with
  | None -> 0.5
  | Some s -> (
    match float_of_string_opt s with
    | Some q when q > 0.0 -> q
    | Some _ | None ->
      Printf.eprintf "BENCH_QUOTA must be a positive float (got %S)\n" s;
      exit 1)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let run_variant ?obs variant =
  match W.Workload.run ?obs variant with
  | Ximd_core.Run.Halted _, state -> state.Ximd_core.State.cycle
  | Ximd_core.Run.Fuel_exhausted _, _ | Ximd_core.Run.Deadlocked _, _
  | Ximd_core.Run.Budget_exceeded _, _ ->
    failwith "bench workload hung"

let selected_workloads filter =
  let all = W.Suite.all () in
  match filter with
  | [] -> all
  | names -> List.filter (fun (w : W.Workload.t) -> List.mem w.name names) all

let workload_tests ?(filter = []) () =
  let open Bechamel in
  let per_workload (workload : W.Workload.t) =
    let tests =
      [ Test.make
          ~name:(workload.name ^ "/xsim")
          (Staged.stage (fun () -> ignore (run_variant workload.ximd))) ]
    in
    match workload.vliw with
    | None -> tests
    | Some vliw ->
      tests
      @ [ Test.make
            ~name:(workload.name ^ "/vsim")
            (Staged.stage (fun () -> ignore (run_variant vliw))) ]
  in
  List.concat_map per_workload (selected_workloads filter)

let minmax_workload () =
  match
    List.find_opt (fun (w : W.Workload.t) -> w.name = "minmax")
      (W.Suite.all ())
  with
  | Some w -> w
  | None -> failwith "bench: minmax workload missing"

let minmax_ximd () = (minmax_workload ()).ximd

let run_session session variant =
  match W.Workload.run_session session variant with
  | Ximd_core.Run.Halted _ -> ()
  | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
  | Ximd_core.Run.Budget_exceeded _ ->
    failwith "bench workload hung"

(* Session reuse: the same minmax/xsim run on one reused session —
   State.reset rewinds the arenas instead of reallocating them, so the
   row quantifies reset-vs-fresh state construction against the plain
   minmax/xsim entry. *)
let session_tests ?(filter = []) () =
  let open Bechamel in
  if filter <> [] && not (List.mem "minmax" filter) then []
  else begin
    let v = minmax_ximd () in
    let session = W.Workload.session v in
    [ Test.make ~name:"minmax/xsim-session"
        (Staged.stage (fun () -> run_session session v)) ]
  end

(* Observability overhead: minmax/xsim with a full sink attached (event
   ring + metrics + hot-PC profile) and with a metrics-only sink.  Each
   row reuses one session (Session.run resets the attached sink), so
   the 64Ki ring allocation is not on the timed path — the numbers
   isolate the per-cycle emission cost.  Budget: xsim+obs ≤ 2× the
   equally-amortised minmax/xsim-session row. *)
let obs_tests ?(filter = []) () =
  let open Bechamel in
  if filter <> [] && not (List.mem "minmax" filter) then []
  else begin
    (* Same variant the plain minmax entries run, so the rows differ
       only in whether a sink is attached. *)
    let v = minmax_ximd () in
    let code_len = Ximd_core.Program.length v.program in
    let sink = Ximd_obs.Sink.create ~n_fus:v.config.n_fus ~code_len () in
    let lean =
      Ximd_obs.Sink.create ~trace:false ~profile:false ~account:false
        ~n_fus:v.config.n_fus ~code_len ()
    in
    let observed = W.Workload.session ~obs:sink v in
    let lean_session = W.Workload.session ~obs:lean v in
    [ Test.make ~name:"minmax/xsim+obs"
        (Staged.stage (fun () -> run_session observed v));
      Test.make ~name:"minmax/xsim+obs-lean"
        (Staged.stage (fun () -> run_session lean_session v)) ]
  end

(* Why-analysis overhead: the --account CLI configuration (metrics +
   per-slot cycle accounting, no ring/profile) on a reused session, and
   the full --compare report (two fresh accounting runs, one per
   sequencing model, per iteration). *)
let why_tests ?(filter = []) () =
  let open Bechamel in
  if filter <> [] && not (List.mem "minmax" filter) then []
  else begin
    let w = minmax_workload () in
    let v = w.ximd in
    let code_len = Ximd_core.Program.length v.program in
    let acct =
      Ximd_obs.Sink.create ~trace:false ~profile:false ~n_fus:v.config.n_fus
        ~code_len ()
    in
    let session = W.Workload.session ~obs:acct v in
    [ Test.make ~name:"minmax/xsim+account"
        (Staged.stage (fun () -> run_session session v));
      Test.make ~name:"minmax/xsim-compare"
        (Staged.stage (fun () ->
           match Ximd_report.Compare.of_workload w with
           | Ok _ -> ()
           | Error e -> failwith e)) ]
  end

let infra_tests () =
  let open Bechamel in
  let minmax_program = (W.Minmax.make ()).ximd.program in
  let source = Ximd_asm.Source.to_source minmax_program in
  let image = Ximd_core.Program.encode minmax_program in
  let kernel =
    { C.Ir.name = "bench_kernel";
      params = [ 0; 1 ];
      results = [ 5 ];
      blocks =
        [ { C.Ir.label = "entry";
            body =
              [ C.Ir.Bin (Ximd_isa.Opcode.Iadd, C.Ir.V 0, C.Ir.V 1, 2);
                C.Ir.Bin (Ximd_isa.Opcode.Imult, C.Ir.V 2, C.Ir.V 0, 3);
                C.Ir.Bin (Ximd_isa.Opcode.Isub, C.Ir.V 3, C.Ir.V 1, 4);
                C.Ir.Bin (Ximd_isa.Opcode.Iadd, C.Ir.V 4, C.Ir.V 2, 5) ];
            term = C.Ir.Return } ] }
  in
  [ Test.make ~name:"asm/parse"
      (Staged.stage (fun () ->
         match Ximd_asm.Source.parse source with
         | Ok _ -> ()
         | Error _ -> failwith "parse failed"));
    Test.make ~name:"program/encode"
      (Staged.stage (fun () ->
         ignore (Ximd_core.Program.encode minmax_program)));
    Test.make ~name:"program/decode"
      (Staged.stage (fun () ->
         match Ximd_core.Program.decode image with
         | Ok _ -> ()
         | Error _ -> failwith "decode failed"));
    Test.make ~name:"compiler/compile-w4"
      (Staged.stage (fun () ->
         match C.Codegen.compile ~width:4 kernel with
         | Ok _ -> ()
         | Error _ -> failwith "compile failed")) ]

(* Compile-time cost of the xcc front end, with and without the
   Schedobs collector attached.  The +sched rows compile with a
   collector and force all three artifact renderings, so they bound
   what `--explain --sched-json --sched-trace` adds end to end; the
   plain rows pin the zero-overhead-when-off claim (budget: within the
   regression gate of the committed baseline).  Paths are relative to
   the repo root, where the harness runs. *)
let xcc_sources = [ ("dot", "examples/xc/dot.xc"); ("gcd", "examples/xc/gcd.xc") ]

let xcc_tests () =
  let open Bechamel in
  List.concat_map
    (fun (name, path) ->
      if not (Sys.file_exists path) then []
      else begin
        let source = In_channel.with_open_text path In_channel.input_all in
        let compile_off () =
          match C.Lang.compile ~width:4 source with
          | Ok _ -> ()
          | Error _ -> failwith ("xcc bench: " ^ name)
        in
        let compile_on () =
          let obs = C.Schedobs.create ~clock:Unix.gettimeofday () in
          match C.Lang.compile ~width:4 ~obs source with
          | Ok _ ->
            ignore (C.Schedobs.to_json obs);
            ignore (C.Schedobs.to_chrome obs);
            ignore (Format.asprintf "%a" C.Schedobs.pp_explain obs)
          | Error _ -> failwith ("xcc bench: " ^ name)
        in
        [ Test.make ~name:("xcc/" ^ name) (Staged.stage compile_off);
          Test.make ~name:("xcc/" ^ name ^ "+sched")
            (Staged.stage compile_on) ]
      end)
    xcc_sources

(* Measures [tests] and returns [(name, ns_per_run)] rows sorted by
   name.  The group prefix Bechamel adds is stripped back off. *)
let measure_tests tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second (quota_seconds ())) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"ximd" tests in
  let raw = Benchmark.all cfg instances grouped in
  let analysed =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let strip_group name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      rows := (strip_group name, estimate) :: !rows)
    analysed;
  List.sort compare !rows

let run_micro ?(filter = []) () =
  Printf.printf "\n=== micro-benchmarks (ns/run, OLS on monotonic clock) \
                 ===\n\n%!";
  let tests =
    workload_tests ~filter ()
    @ session_tests ~filter ()
    @ obs_tests ~filter ()
    @ why_tests ~filter ()
    @ (if filter = [] then infra_tests () @ xcc_tests () else [])
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-28s %14.0f ns/run\n%!" name est)
    (measure_tests tests)

(* ------------------------------------------------------------------ *)
(* Farm throughput: end-to-end jobs/sec through the supervised run
   farm (spawn domains, dispatch, run, reorder, summarise) on a fixed
   64-job minmax campaign, at 1, 2 and 4 worker domains.  Each sample
   is a complete farm lifetime, so the figure includes domain spawn and
   session construction — the cost a sweep actually pays. *)

let farm_job_count = 64

let farm_jobs () =
  List.init farm_job_count (fun i ->
    let line =
      Printf.sprintf {|{"workload":"minmax","id":"bench-%d","seed":%d}|} i i
    in
    match Ximd_farm.Job.of_line ~index:i line with
    | Ok job -> job
    | Error e -> failwith ("bench farm job: " ^ e))

(* Each domain count gets a plain row and a [+obs] row with a campaign
   observer attached (spans, rollup aggregation, per-session account
   sinks).  The [overhead] field on the +obs row is plain-jobs/sec over
   telemetry-jobs/sec.  Budget: ≤ 1.1× the matching plain row for
   campaigns of non-trivial jobs; this 38-cycle minmax microcampaign is
   the adversarial floor — slot accounting is per-cycle work and the
   runs are too short to amortise it — and lands around 1.1–1.3×
   depending on domain count. *)
let farm_rows () =
  let jobs = farm_jobs () in
  let time_once ~telemetry domains =
    let obs =
      if telemetry then
        Some (Ximd_obs.Farmobs.create ~clock:Unix.gettimeofday ())
      else None
    in
    let t0 = Unix.gettimeofday () in
    let records, summary = Ximd_farm.Farm.run_list ?obs ~domains jobs in
    let dt = Unix.gettimeofday () -. t0 in
    if List.length records <> farm_job_count then
      failwith "bench farm: record count mismatch";
    if summary.Ximd_farm.Record.max_exit_code <> 0 then
      failwith "bench farm: campaign not clean";
    (match obs with
     | Some o when Ximd_obs.Farmobs.completed o <> farm_job_count ->
       failwith "bench farm: telemetry span count mismatch"
     | Some _ | None -> ());
    dt
  in
  let quota = quota_seconds () in
  let best_of ~telemetry domains =
    ignore (time_once ~telemetry domains);
    let best = ref infinity and spent = ref 0.0 in
    while !spent < quota do
      let dt = time_once ~telemetry domains in
      spent := !spent +. dt;
      if dt < !best then best := dt
    done;
    float_of_int farm_job_count /. !best
  in
  List.concat_map
    (fun domains ->
      let plain = best_of ~telemetry:false domains in
      let obs = best_of ~telemetry:true domains in
      [ (Printf.sprintf "farm/minmax@%d" domains, domains, farm_job_count,
         plain, None);
        (Printf.sprintf "farm/minmax+obs@%d" domains, domains,
         farm_job_count, obs, Some (plain /. obs)) ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Machine-readable simulator throughput baseline                      *)

let bench_json_file = "BENCH_simulator.json"

(* Simulated cycles per wall-clock second: how fast the simulator
   retires machine cycles, the figure of merit for sweeping large
   configurations.  One checked run per variant supplies the cycle
   count; Bechamel supplies ns/run. *)
let run_json ?(filter = []) () =
  let workloads = selected_workloads filter in
  if workloads = [] then failwith "json: no workloads selected";
  let cycle_counts =
    List.concat_map
      (fun (w : W.Workload.t) ->
        let entries =
          [ (w.name ^ "/xsim", w.name, "xsim", run_variant w.ximd) ]
        in
        let entries =
          (* the session-reuse and accounting rows retire the same
             cycles as the plain xsim row; only the per-run cost
             differs.  The compare row simulates both codings, so it
             retires the sum. *)
          if w.name = "minmax" then
            entries
            @ [ (w.name ^ "/xsim-session", w.name, "xsim-session",
                 run_variant w.ximd);
                (w.name ^ "/xsim+account", w.name, "xsim+account",
                 run_variant w.ximd);
                (w.name ^ "/xsim-compare", w.name, "xsim-compare",
                 run_variant w.ximd
                 + match w.vliw with
                   | Some vliw -> run_variant vliw
                   | None -> 0) ]
          else entries
        in
        match w.vliw with
        | None -> entries
        | Some vliw ->
          entries @ [ (w.name ^ "/vsim", w.name, "vsim", run_variant vliw) ])
      workloads
  in
  let estimates =
    measure_tests
      (workload_tests ~filter () @ session_tests ~filter ()
       @ why_tests ~filter ())
  in
  (* Compile-time rows: only for the full (unfiltered) run, since the
     filter vocabulary is workload names. *)
  let compiler_estimates =
    if filter = [] then measure_tests (xcc_tests ()) else []
  in
  (* Farm rows only make sense when minmax (the campaign workload) is
     in the selection. *)
  let farm =
    if filter = [] || List.mem "minmax" filter then farm_rows () else []
  in
  let module J = Ximd_json in
  let entries =
    List.filter_map
      (fun (name, workload, simulator, cycles) ->
        Option.map
          (fun ns_per_run ->
            J.Obj
              [ ("name", J.String name);
                ("workload", J.String workload);
                ("simulator", J.String simulator);
                ("cycles", J.Int cycles);
                ("ns_per_run", J.Fixed (1, ns_per_run));
                ( "cycles_per_sec",
                  J.Fixed (1, float_of_int cycles /. (ns_per_run *. 1e-9)) ) ])
          (List.assoc_opt name estimates))
      cycle_counts
  in
  (* Compiler rows: per source, trace-off ns/run next to the +sched
     row, with the overhead ratio pinned so the regression gate can
     hold the trace-off path to the baseline. *)
  let compiler =
    List.concat_map
      (fun (kernel, _path) ->
        let name = "xcc/" ^ kernel in
        match
          ( List.assoc_opt name compiler_estimates,
            List.assoc_opt (name ^ "+sched") compiler_estimates )
        with
        | Some p, Some s ->
          [ J.Obj [ ("name", J.String name); ("ns_per_run", J.Fixed (1, p)) ];
            J.Obj
              [ ("name", J.String (name ^ "+sched"));
                ("ns_per_run", J.Fixed (1, s));
                ("overhead", J.Fixed (2, s /. p)) ] ]
        | _ -> [])
      xcc_sources
  in
  let farm_json =
    List.map
      (fun (name, domains, jobs, jobs_per_sec, overhead) ->
        J.Obj
          ([ ("name", J.String name);
             ("domains", J.Int domains);
             ("jobs", J.Int jobs);
             ("jobs_per_sec", J.Fixed (1, jobs_per_sec)) ]
          @
          match overhead with
          | None -> []
          | Some o -> [ ("overhead", J.Fixed (2, o)) ]))
      farm
  in
  let oc = open_out bench_json_file in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("schema", J.String "ximd-bench/1");
            ("quota_seconds", J.Float (quota_seconds ()));
            ("entries", J.List entries);
            ("compiler", J.List compiler);
            ("farm", J.List farm_json) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" bench_json_file
    (List.length cycle_counts + List.length farm
     + List.length compiler_estimates);
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %14.0f ns/run\n%!" name ns)
    compiler_estimates;
  List.iter
    (fun (name, _domains, jobs, jobs_per_sec, overhead) ->
      let overhead_note =
        match overhead with
        | None -> ""
        | Some o -> Printf.sprintf "  (%.2fx vs plain)" o
      in
      Printf.printf "%-28s %8d jobs %16.0f jobs/sec%s\n%!" name jobs
        jobs_per_sec overhead_note)
    farm;
  List.iter
    (fun (name, workload, simulator, cycles) ->
      ignore workload;
      ignore simulator;
      match List.assoc_opt name estimates with
      | None -> ()
      | Some ns ->
        Printf.printf "%-28s %14.0f ns/run %16.0f cycles/sec\n%!" name ns
          (float_of_int cycles /. (ns *. 1e-9)))
    cycle_counts

(* ------------------------------------------------------------------ *)

let run_experiment id =
  match
    List.assoc_opt id
      (Ximd_report.Experiments.known @ Ximd_report.Ablations.known)
  with
  | Some f ->
    let fmt = Format.std_formatter in
    Format.pp_open_vbox fmt 0;
    f fmt;
    Format.pp_close_box fmt ();
    Format.pp_print_newline fmt ()
  | None ->
    Printf.eprintf "unknown experiment %S (have: %s, micro, json)\n" id
      (String.concat ", " (List.map fst Ximd_report.Experiments.known));
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload_names =
    List.map (fun (w : W.Workload.t) -> w.name) (W.Suite.all ())
  in
  let filter, args =
    List.partition (fun a -> List.mem a workload_names) args
  in
  let known_ids =
    List.map fst (Ximd_report.Experiments.known @ Ximd_report.Ablations.known)
  in
  (* Reject typos before any (potentially long) run starts. *)
  List.iter
    (fun arg ->
      if arg <> "micro" && arg <> "json" && not (List.mem arg known_ids) then begin
        Printf.eprintf
          "unknown argument %S (expected a workload name, an experiment id, \
           micro or json)\n"
          arg;
        exit 1
      end)
    args;
  match args with
  | [] when filter = [] ->
    run_experiment "all";
    run_experiment "ablations"
  | [] -> run_micro ~filter ()
  | args ->
    List.iter
      (fun arg ->
        if arg = "micro" then run_micro ~filter ()
        else if arg = "json" then run_json ~filter ()
        else run_experiment arg)
      args
