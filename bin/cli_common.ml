(* The command-line layer every tool shares: xsim and vsim run the full
   pipeline below; xcc reuses [run_and_report]; ximd-serve and fuzz run
   take the run farm's options ([farm_term]) and build and write their
   campaign observer here; every tool reads and writes files through
   [read_input] and [write_output], reports bad input through
   [bad_input], documents its exit codes with [exit_infos] and ends in
   [eval]. *)

open Cmdliner
open Ximd_isa

let program_of_file path =
  match Ximd_asm.Source.parse_file path with
  | Ok program -> Ok program
  | Error e ->
    Error (Format.asprintf "%s: %a" path Ximd_asm.Source.pp_error e)

(* "r3=42" *)
let parse_reg_init s =
  match String.split_on_char '=' s with
  | [ reg; v ] -> (
    match (Reg.of_string reg, int_of_string_opt v) with
    | Some r, Some v -> Ok (r, Value.of_int v)
    | _ -> Error (`Msg ("bad register initialiser " ^ s)))
  | _ -> Error (`Msg ("bad register initialiser " ^ s))

(* "256=7" *)
let parse_mem_init s =
  match String.split_on_char '=' s with
  | [ addr; v ] -> (
    match (int_of_string_opt addr, int_of_string_opt v) with
    | Some a, Some v -> Ok (a, Value.of_int v)
    | _ -> Error (`Msg ("bad memory initialiser " ^ s)))
  | _ -> Error (`Msg ("bad memory initialiser " ^ s))

let reg_init_conv =
  Arg.conv
    ( parse_reg_init,
      fun fmt (r, v) -> Format.fprintf fmt "%a=%a" Reg.pp r Value.pp v )

let mem_init_conv =
  Arg.conv
    ( parse_mem_init,
      fun fmt (a, v) -> Format.fprintf fmt "%d=%a" a Value.pp v )

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"XIMD assembly source file.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print a Figure-10 style \
                                             address trace.")

let listing_flag =
  Arg.(value & flag & info [ "listing" ] ~doc:"Print the program listing \
                                               before running.")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

let max_cycles_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-cycles" ] ~docv:"N" ~doc:"Cycle fuel before giving up.")

let cycle_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cycle-budget" ] ~docv:"N"
        ~doc:"Per-run cycle budget below the fuel: a run that reaches \
              $(docv) cycles without halting stops and reports budget \
              exceeded (exit code 6).  Unlike $(b,--max-cycles) — the \
              machine's fuel, exit code 3 — this is a supervision \
              limit; a budget at or above the fuel never fires.")

let record_hazards_flag =
  Arg.(
    value & flag
    & info [ "record-hazards" ]
        ~doc:"Log hazards and continue instead of stopping at the first.")

let reg_inits_arg =
  Arg.(
    value & opt_all reg_init_conv []
    & info [ "r"; "reg" ] ~docv:"rN=V" ~doc:"Initialise a register.")

let mem_inits_arg =
  Arg.(
    value & opt_all mem_init_conv []
    & info [ "m"; "mem" ] ~docv:"ADDR=V" ~doc:"Initialise a memory word.")

let dump_regs_arg =
  Arg.(
    value & opt (list string) []
    & info [ "dump-regs" ] ~docv:"r1,r2,.."
        ~doc:"Print these registers after the run.")

let dump_mem_arg =
  Arg.(
    value & opt (some (pair ~sep:':' int int)) None
    & info [ "dump-mem" ] ~docv:"ADDR:LEN"
        ~doc:"Print LEN memory words starting at ADDR after the run.")

let detect_deadlock_flag =
  Arg.(
    value & flag
    & info [ "detect-deadlock" ]
        ~doc:"Watch for deadlock/livelock: if the machine makes no \
              progress and its control state repeats for a full window \
              of cycles, stop and classify the run as deadlocked (exit \
              code 4) instead of burning the cycle fuel.")

let deadlock_window_arg =
  Arg.(
    value
    & opt int Ximd_core.Watchdog.default_window
    & info [ "deadlock-window" ] ~docv:"N"
        ~doc:"Quiet-cycle window the deadlock watchdog must fill before \
              it classifies (minimum 4).")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:"Inject faults on a deterministic schedule.  $(docv) is a \
              comma-separated list of KIND@CYCLE:TARGET events (KIND one \
              of ss, cc, drop, dup, halt) and/or rand:SEED:COUNT[:UNTIL] \
              pseudo-random batches.  Example: \
              $(b,--inject ss@10:1,rand:42:5).")

let trace_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-events" ] ~docv:"FILE"
        ~doc:"Write the run's event timeline as Chrome trace_event JSON \
              to $(docv) ($(b,-) for stdout): one track per functional \
              unit (fetch runs, CC broadcasts, SS transitions, barrier \
              enter/exit, halts), one track per SSET stream, and a \
              live-stream counter.  Load the file in Perfetto \
              (ui.perfetto.dev) or chrome://tracing; one cycle = 1 us.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write run metrics (counters, gauges, log-bucketed \
              histograms, barrier-wait attribution) as JSON to $(docv) \
              ($(b,-) for stdout).")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Print a flat hot-PC profile after the run: samples per \
              instruction address, hottest first, with per-FU split and \
              source labels.")

let timeline_flag =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:"Print the SSET timeline after the run: one line per \
              fork/join interval of lockstep FU groups, plus the \
              observability summary (per-FU utilisation, spin streaks, \
              barrier waits).")

let account_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "account" ] ~docv:"FILE"
        ~doc:"Classify every fu-times-cycle slot of the run (commit, nop \
              padding, SS/CC spin, barrier wait, squashed, fault lost, \
              halted) and write the accounting as JSON (schema \
              ximd-account/1) to $(docv) ($(b,-) for stdout).  Unless \
              $(docv) is $(b,-), the human table is also printed.")

let critical_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "critical-path" ] ~docv:"FILE"
        ~doc:"Reconstruct the run's dynamic dependence graph (register \
              def-use, SS producer-consumer, barrier and sequencer \
              edges), compute its critical path — the cycle count an \
              ideal machine with the same latencies needs — and write \
              the report as JSON (schema ximd-critpath/1) to $(docv) \
              ($(b,-) for stdout).  Unless $(docv) is $(b,-), the human \
              summary is also printed.")

let profile_folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-folded" ] ~docv:"FILE"
        ~doc:"Write the hot-PC profile as folded stacks \
              ($(b,fuN;label count) lines) to $(docv) ($(b,-) for \
              stdout), ready for flamegraph.pl or speedscope.")

let compare_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "compare" ] ~docv:"VLIW_FILE"
        ~doc:"Differential XIMD-vs-VLIW report: run FILE under per-FU \
              sequencers and $(docv) — a control-consistent VLIW coding \
              of the same computation — under the global sequencer, \
              then explain the cycle delta slot category by slot \
              category.  Register/memory initialisers apply to both \
              runs; other diagnostic flags are ignored in this mode.")

let compare_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "compare-json" ] ~docv:"FILE"
        ~doc:"With $(b,--compare): also write the differential report \
              as JSON (schema ximd-compare/1) to $(docv) ($(b,-) for \
              stdout).")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:"Run the program $(docv) times on one reused simulator \
              session (state arenas are rewound between runs, not \
              reallocated) and report per-run wall time and simulated \
              speed (cycles per wall-clock second, in Mcycle/s).  \
              Register and memory initialisers are reapplied before \
              every run.  \
              Diagnostic output — trace, dumps, statistics, postmortem, \
              observability exports, exit code — reflects the final \
              run.")

let postmortem_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "postmortem" ] ~docv:"FORMAT"
        ~doc:"Always print a structured postmortem (per-FU state, hazard \
              log, fired faults) after the run, as $(b,text) or \
              $(b,json).  Without this option a text postmortem is \
              printed only when the run deadlocks.")

(* Bad input or usage: one line on stderr, after "TOOL: " when [tool]
   is given, and exit [code]: 1, or fuzz's 2, whose 1 means a
   divergence. *)
let bad_input ?(code = 1) ?tool fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (match tool with Some t -> t ^ ": " ^ msg | None -> msg);
      exit code)
    fmt

(* A path a tool cannot read or write is bad input: one
   "TOOL: PATH: REASON" line, never an uncaught [Sys_error].  [msg] is
   the [Sys_error] text, which may already start with the path. *)
let io_failure ?code ~tool path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  bad_input ?code ~tool "%s: %s" path reason

let read_input ~tool path =
  match Ximd_asm.Source.read_file path with
  | Ok contents -> contents
  | Error msg -> io_failure ~tool path msg

(* Writes [contents] to [path], "-" meaning stdout. *)
let write_output ?code ~tool path contents =
  if path = "-" then print_string contents
  else
    try
      Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
    with Sys_error msg -> io_failure ?code ~tool path msg

(* A one-line JSON document, newline-terminated. *)
let write_json ~tool path json =
  write_output ~tool path (Ximd_json.to_string json ^ "\n")

(* The steps every CLI run shares.  [run ()] runs the program on
   [state] (more than once under --repeat): a hazard under the [Raise]
   policy prints "hazard: ..." and exits 2, a program its model rejects
   exits 1.  Then the tracer's Figure 10 table and the outcome are
   printed, [report] prints what the tool adds, and the process exits
   with the finished run's code, from its outcome and the hazards it
   recorded; the call returns only when that code is 0.  The canonical
   table lives in {!Ximd_core.Run.exit_codes}; --help's EXIT STATUS
   section and the README document the same values. *)
let run_and_report ?tracer ~state ~report run =
  let outcome =
    try run () with
    | Ximd_machine.Hazard.Error event ->
      Printf.eprintf "hazard: %s\n"
        (Format.asprintf "%a" Ximd_machine.Hazard.pp_event event);
      exit 2
    | Invalid_argument msg -> bad_input "%s" msg
  in
  (match tracer with
   | Some t ->
     Format.printf "%a@." (Ximd_core.Tracer.pp_figure10 ?comments:None) t
   | None -> ());
  Format.printf "%a@." Ximd_core.Run.pp outcome;
  report outcome;
  let hazards = List.length (Ximd_core.State.hazards state) in
  match Ximd_core.Run.exit_code ~hazards outcome with
  | 0 -> ()
  | code -> exit code

(* --compare short-circuits the normal run: both sides execute through
   {!Ximd_report.Compare} with accounting sinks attached, built by the
   normal run's [config_of] and [setup], and the process exits with the
   worse of the two outcomes' codes. *)
let run_compare ~tool model program compare_path compare_json ~config_of
    ~setup =
  if model <> Ximd_core.Engine.Per_fu then
    bad_input "--compare is only available on xsim";
  match program_of_file compare_path with
  | Error msg -> bad_input "%s" msg
  | Ok vliw_program ->
    let variant sim program =
      { Ximd_workloads.Workload.sim;
        program;
        config = config_of program;
        setup;
        check = (fun _ -> Ok ()) }
    in
    (match
       Ximd_report.Compare.run
         ~ximd:(variant Ximd_workloads.Workload.Ximd program)
         ~vliw:(variant Ximd_workloads.Workload.Vliw vliw_program)
     with
     | Error msg -> bad_input "%s" msg
     | Ok cmp ->
       Format.printf "%a@." Ximd_report.Compare.pp cmp;
       (match compare_json with
        | None -> ()
        | Some out ->
          write_json ~tool out (Ximd_report.Compare.to_json cmp));
       exit
         (max
            (Ximd_core.Run.exit_code ~hazards:0
               cmp.Ximd_report.Compare.ximd.outcome)
            (Ximd_core.Run.exit_code ~hazards:0
               cmp.Ximd_report.Compare.vliw.outcome)))

let run_simulator ~tool model path trace listing stats max_cycles cycle_budget
    record_hazards
    detect_deadlock deadlock_window inject repeat postmortem trace_events
    metrics_file profile timeline account_file critical_path profile_folded
    compare_file compare_json reg_inits mem_inits dump_regs dump_mem =
  if repeat < 1 then bad_input "--repeat must be at least 1";
  if max_cycles < 1 then bad_input "--max-cycles must be at least 1";
  (match cycle_budget with
   | Some b when b < 1 -> bad_input "--cycle-budget must be at least 1"
   | Some _ | None -> ());
  match program_of_file path with
  | Error msg -> bad_input "%s" msg
  | Ok program ->
    let config_of program =
      Ximd_core.Config.make
        ~n_fus:(Ximd_core.Program.n_fus program)
        ~max_cycles
        ~hazard_policy:
          (if record_hazards then Ximd_machine.Hazard.Record
           else Ximd_machine.Hazard.Raise)
        ()
    in
    let config = config_of program in
    (* What a dump names must exist on this machine: a bad name or
       range is bad usage, refused before the run. *)
    let dump_regs =
      List.map
        (fun name ->
          match Reg.of_string (String.trim name) with
          | Some r -> r
          | None -> bad_input "--dump-regs: bad register %S" name)
        dump_regs
    in
    (match dump_mem with
     | Some (_, len) when len < 0 ->
       bad_input "--dump-mem: length %d is negative" len
     | Some (addr, len) when addr < 0 || len > config.mem_words - addr ->
       bad_input "--dump-mem: %d:%d lies outside the %d-word memory" addr len
         config.mem_words
     | Some _ | None -> ());
    let setup state =
      Ximd_core.State.apply_inits state ~regs:reg_inits ~mem:mem_inits
    in
    (match compare_file with
     | Some compare_path ->
       run_compare ~tool model program compare_path compare_json ~config_of
         ~setup
     | None -> ());
    if listing then
      Format.printf "%a@." Ximd_core.Program.pp_listing program;
    let faults =
      match inject with
      | None -> None
      | Some spec -> (
        match
          Ximd_machine.Fault.of_spec
            ~n_fus:(Ximd_core.Program.n_fus program)
            spec
        with
        | Ok faults -> Some faults
        | Error msg -> bad_input "--inject: %s" msg)
    in
    let obs =
      if
        trace_events <> None || metrics_file <> None || profile || timeline
        || account_file <> None || critical_path <> None
        || profile_folded <> None
      then
        Some
          (Ximd_obs.Sink.create
             ~trace:(trace_events <> None)
             ~critpath:(critical_path <> None)
             ~n_fus:(Ximd_core.Program.n_fus program)
             ~code_len:(Ximd_core.Program.length program)
             ())
      else None
    in
    let session =
      try Ximd_core.Session.create ~config ?faults ?obs ~model program
      with Invalid_argument msg -> bad_input "%s" msg
    in
    let state = Ximd_core.Session.state session in
    let tracer = if trace then Some (Ximd_core.Tracer.create ()) else None in
    let watchdog =
      if detect_deadlock then (
        if deadlock_window < 4 then
          bad_input "--deadlock-window must be at least 4";
        Some (Ximd_core.Watchdog.create ~window:deadlock_window ()))
      else None
    in
    let run_once ?tracer () =
      Ximd_core.Session.run ?tracer ?watchdog ?budget:cycle_budget ~setup
        session
    in
    let run () =
      if repeat = 1 then run_once ?tracer ()
      else begin
        (* The tracer (and every other diagnostic) reflects the final
           run only; earlier iterations exist to exercise and time
           session reuse. *)
        let last = ref (Ximd_core.Run.Halted { cycles = 0 }) in
        for i = 1 to repeat do
          let tracer = if i = repeat then tracer else None in
          let t0 = Unix.gettimeofday () in
          let outcome = run_once ?tracer () in
          let us = (Unix.gettimeofday () -. t0) *. 1e6 in
          (* simulated cycles per host microsecond: Mcycle/s *)
          Format.printf "run %-4d %10.1f us %8.2f Mcycle/s  %a@." i us
            (float_of_int (Ximd_core.Run.cycles outcome) /. us)
            Ximd_core.Run.pp outcome;
          last := outcome
        done;
        !last
      end
    in
    let report outcome =
      List.iter
        (fun r ->
          Format.printf "%a = %a@." Reg.pp r Value.pp
            (Ximd_machine.Regfile.read state.regs r))
        dump_regs;
      (match dump_mem with
       | None -> ()
       | Some (addr, len) ->
         for a = addr to addr + len - 1 do
           Format.printf "M[%d] = %a@." a Value.pp
             (Ximd_core.State.mem_get state a)
         done);
      if stats then Format.printf "%a@." Ximd_core.Stats.pp state.stats;
      (match obs with
       | None -> ()
       | Some sink ->
         let dropped = Ximd_obs.Sink.dropped_events sink in
         if dropped > 0 then
           Printf.eprintf
             "warning: %d observability events dropped (ring overflow, \
              oldest first); the event trace covers only the end of the \
              run\n%!"
             dropped;
         let pc_label pc = Ximd_core.Program.label_at program pc in
         (match trace_events with
          | None -> ()
          | Some path ->
            write_output ~tool path (Ximd_obs.Chrome.to_string ~pc_label sink));
         (match metrics_file with
          | None -> ()
          | Some path ->
            write_json ~tool path (Ximd_obs.Sink.metrics_json sink));
         if profile then begin
           match Ximd_obs.Sink.profile sink with
           | None -> ()
           | Some prof ->
             let describe pc =
               let label =
                 match pc_label pc with Some l -> l ^ ":" | None -> ""
               in
               if pc < 0 || pc >= Ximd_core.Program.length program then label
               else begin
                 let row = Ximd_core.Program.row program pc in
                 let ops =
                   Array.to_list row
                   |> List.filter_map (fun (p : Ximd_isa.Parcel.t) ->
                        if Ximd_isa.Parcel.is_nop p.data then None
                        else
                          Some
                            (Format.asprintf "%a" Ximd_isa.Parcel.pp_data
                               p.data))
                 in
                 match ops with
                 | [] -> label
                 | _ ->
                   (if label = "" then "" else label ^ " ")
                   ^ String.concat "; " ops
               end
             in
             Format.printf "%a@." (Ximd_obs.Profile.pp ~describe) prof
         end;
         if timeline then begin
           Format.printf "SSET timeline (cycle range, members):@.%a@."
             Ximd_obs.Timeline.pp
             (Ximd_obs.Sink.timeline sink);
           Format.printf "%a@." Ximd_obs.Sink.pp_summary sink
         end;
         (match profile_folded with
          | None -> ()
          | Some out ->
            (match Ximd_obs.Sink.profile sink with
             | None -> ()
             | Some prof ->
               let describe pc =
                 match pc_label pc with Some l -> l | None -> ""
               in
               write_output ~tool out
                 (Ximd_obs.Profile.to_folded ~describe prof)));
         let realised = state.stats.Ximd_core.Stats.cycles in
         (match account_file with
          | None -> ()
          | Some out ->
            (match Ximd_obs.Sink.account sink with
             | None -> ()
             | Some acct ->
               write_json ~tool out
                 (Ximd_obs.Account.to_json acct ~cycles:realised);
               if out <> "-" then
                 Format.printf "%a@."
                   (fun fmt a -> Ximd_obs.Account.pp fmt a ~cycles:realised)
                   acct));
         (match critical_path with
          | None -> ()
          | Some out ->
            (match Ximd_obs.Sink.critpath sink with
             | None -> ()
             | Some crit ->
               write_json ~tool out (Ximd_obs.Critpath.to_json crit ~realised);
               if out <> "-" then
                 Format.printf "%a@."
                   (fun fmt c -> Ximd_obs.Critpath.pp fmt c ~realised)
                   crit)));
      let hazards = Ximd_core.State.hazards state in
      if hazards <> [] then begin
        Format.printf "%d hazards recorded:@." (List.length hazards);
        List.iter
          (fun e -> Format.printf "  %a@." Ximd_machine.Hazard.pp_event e)
          hazards
      end;
      let deadlocked =
        match outcome with Ximd_core.Run.Deadlocked _ -> true | _ -> false
      in
      (match postmortem with
       | Some `Json ->
         write_json ~tool "-"
           (Ximd_report.Diagnostics.to_json
              (Ximd_report.Diagnostics.collect state ~outcome))
       | Some `Text ->
         Format.printf "%a@."
           Ximd_report.Diagnostics.pp
           (Ximd_report.Diagnostics.collect state ~outcome)
       | None ->
         if deadlocked then
           Format.printf "%a@."
             Ximd_report.Diagnostics.pp
             (Ximd_report.Diagnostics.collect state ~outcome))
    in
    run_and_report ?tracer ~state ~report run

(* --help's EXIT STATUS section, one entry per (code, doc) pair. *)
let exit_infos = List.map (fun (code, doc) -> Cmd.Exit.info code ~doc)

let exits = exit_infos Ximd_core.Run.exit_codes

(* The codes of a tool that either succeeds or refuses its input. *)
let ok_or_bad_input =
  exit_infos
    (List.filter (fun (code, _) -> code <= 1) Ximd_core.Run.exit_codes)

let simulator_term ~tool sim_term =
  Term.(
    const (run_simulator ~tool)
    $ sim_term $ file_arg $ trace_flag $ listing_flag $ stats_flag
    $ max_cycles_arg $ cycle_budget_arg $ record_hazards_flag
    $ detect_deadlock_flag
    $ deadlock_window_arg $ inject_arg $ repeat_arg $ postmortem_arg
    $ trace_events_arg
    $ metrics_arg $ profile_flag $ timeline_flag $ account_arg
    $ critical_path_arg $ profile_folded_arg $ compare_arg
    $ compare_json_arg $ reg_inits_arg
    $ mem_inits_arg $ dump_regs_arg $ dump_mem_arg)

(* --- The run farm's options: ximd-serve and fuzz run ------------------ *)

type farm_opts = {
  domains : int;
  trace_out : string option;
  report_out : string option;
  progress_every : int;
}

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains, 1 to 64; the count is honoured even \
              beyond the machine's core count.")

let campaign_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "campaign-trace" ] ~docv:"FILE"
        ~doc:"Write a whole-campaign Chrome trace_event file: one track \
              per worker domain, one outcome-coloured slice per job, \
              queue-depth counter track.  Open in chrome://tracing or \
              Perfetto.")

let campaign_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "campaign-report" ] ~docv:"FILE"
        ~doc:"Write a ximd-campaign/1 rollup: line 2 is the logical view \
              (byte-stable across runs and domain counts), line 3 the \
              fleet view (wall times, per-domain totals, cache hit \
              rate).")

let progress_every_arg =
  Arg.(
    value & opt int 0
    & info [ "progress-every" ] ~docv:"N"
        ~doc:"Emit one ximd-progress/1 heartbeat line to stderr after \
              every N completed jobs (0 disables).")

(* The farm's options.  A domain count out of range or a negative
   heartbeat period is bad usage, refused through [bad_input] with the
   caller's [code] and [tool]. *)
let farm_term ?code ?tool () =
  let check domains trace_out report_out progress_every =
    if domains < 1 then bad_input ?code ?tool "--domains must be at least 1";
    if domains > Ximd_farm.Pool.max_domains then
      bad_input ?code ?tool "--domains must be at most %d"
        Ximd_farm.Pool.max_domains;
    if progress_every < 0 then
      bad_input ?code ?tool "--progress-every must be non-negative";
    { domains; trace_out; report_out; progress_every }
  in
  Term.(
    const check $ domains_arg $ campaign_trace_arg $ campaign_report_arg
    $ progress_every_arg)

(* The campaign observer the options ask for, if any. *)
let farm_observer opts =
  if
    opts.trace_out <> None || opts.report_out <> None
    || opts.progress_every > 0
  then
    Some
      (Ximd_obs.Farmobs.create ~progress_every:opts.progress_every
         ~progress:prerr_endline ~clock:Unix.gettimeofday ())
  else None

(* Writes the campaign trace and report the options name, and warns
   when a run's event ring overflowed, which leaves the trace short. *)
let write_farm_observer ?code ~tool opts obs =
  Option.iter
    (fun o ->
      Option.iter
        (fun path ->
          write_output ?code ~tool path (Ximd_obs.Farmobs.chrome_json o))
        opts.trace_out;
      Option.iter
        (fun path ->
          write_output ?code ~tool path (Ximd_obs.Farmobs.rollup_json o))
        opts.report_out;
      let dropped =
        (Ximd_obs.Metrics.counter (Ximd_obs.Farmobs.merged_metrics o)
           "events_dropped")
          .Ximd_obs.Metrics.c_value
      in
      if dropped > 0 then
        Printf.eprintf
          "%s: warning: %d observability events dropped (ring overflow); \
           traces are incomplete\n%!"
          tool dropped)
    obs

(* Runs a tool's command line and exits.  One the parser refuses is
   bad usage: cmdliner's message and exit [code] (1, or fuzz's 2),
   never cmdliner's 124.  Help exits 0; an exception that escapes keeps
   cmdliner's 125. *)
let eval ?(code = 1) cmd =
  exit
    (match Cmd.eval_value cmd with
     | Ok (`Ok () | `Help | `Version) -> 0
     | Error (`Parse | `Term) -> code
     | Error `Exn -> Cmd.Exit.internal_error)
