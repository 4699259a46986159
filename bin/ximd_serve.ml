(* ximd-serve — the batch run service (`ximd serve`).

   Reads line-delimited ximd-job/1 specs from stdin (or a Unix socket),
   runs them on the supervised farm, and streams one ximd-result/1 line
   per job in submission order, followed by one ximd-summary/1 line.
   The process exit code is the worst record's slot in the canonical
   exit-code table; SIGINT flushes every completed record, drains the
   queue into Dropped records, and exits 130. *)

open Cmdliner
module Farm = Ximd_farm

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains (capped to the machine's recommended \
              domain count).")

let queue_bound_arg =
  Arg.(
    value & opt int 256
    & info [ "queue-bound" ] ~docv:"N"
        ~doc:"Backpressure bound on queued-not-yet-running jobs.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix domain socket instead of stdin: accept \
              connections one at a time, treat each connection as one \
              campaign (job lines in, result lines back on the same \
              connection).  Stop with SIGINT.")

let no_summary_flag =
  Arg.(
    value & flag
    & info [ "no-summary" ]
        ~doc:"Do not append the ximd-summary/1 line to the result \
              stream.")

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

type campaign_opts = {
  trace_out : string option;
  report_out : string option;
  progress_every : int;
}

let write_file path content =
  Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc content)

(* One campaign: job lines from [input], result lines to [output].
   Returns the worst exit code seen, or 130 if interrupted.  Telemetry
   is per-campaign: in socket mode each connection gets a fresh
   observer and overwrites the trace/report files. *)
let run_campaign ~domains ~queue_bound ~summary ~campaign input output =
  let obs =
    if
      campaign.trace_out <> None
      || campaign.report_out <> None
      || campaign.progress_every > 0
    then
      Some
        (Ximd_obs.Farmobs.create ~progress_every:campaign.progress_every
           ~progress:prerr_endline ~clock:Unix.gettimeofday ())
    else None
  in
  (* SIGPIPE is ignored, so a reader that hangs up surfaces as a
     [Sys_error] from the write.  That only stops the writing: [emit]
     runs with the pool lock held, so the reader loop below is what
     stops submitting and interrupts the farm. *)
  let reader_gone = Atomic.make false in
  let write_line line =
    if not (Atomic.get reader_gone) then
      try
        output_string output line;
        output_char output '\n';
        flush output
      with Sys_error _ -> Atomic.set reader_gone true
  in
  let records = ref [] in
  let emit record =
    records := record :: !records;
    write_line (Ximd_farm.Record.to_json_string record)
  in
  let farm = Farm.Farm.create ~domains ~queue_bound ?obs ~emit () in
  let interrupted = ref false in
  (try
     let rec loop () =
       if Atomic.get reader_gone then Farm.Farm.interrupt farm
       else
         match input_line input with
         | "" -> loop ()
         | line ->
           ignore (Farm.Farm.submit_line farm line);
           loop ()
         | exception (End_of_file | Sys_error _) -> ()
     in
     loop ()
   with Sys.Break ->
     interrupted := true;
     Farm.Farm.interrupt farm);
  (* join flushes in-flight results through [emit] before returning *)
  (try Farm.Farm.join farm
   with Sys.Break ->
     interrupted := true;
     Farm.Farm.interrupt farm;
     Farm.Farm.join farm);
  let records = List.rev !records in
  let s = Farm.Record.summarise records in
  if summary then begin
    (* with telemetry on, the summary line carries the campaign's merged
       metrics registry (counters summed, histograms merged across jobs) *)
    let metrics =
      Option.map
        (fun o ->
          Ximd_obs.Metrics.to_json (Ximd_obs.Farmobs.merged_metrics o))
        obs
    in
    write_line (Farm.Record.summary_to_json_string ?metrics s)
  end;
  (match obs with
   | None -> ()
   | Some o ->
     Option.iter
       (fun path -> write_file path (Ximd_obs.Farmobs.chrome_json o))
       campaign.trace_out;
     Option.iter
       (fun path -> write_file path (Ximd_obs.Farmobs.rollup_json o))
       campaign.report_out;
     let dropped =
       let c =
         Ximd_obs.Metrics.counter
           (Ximd_obs.Farmobs.merged_metrics o)
           "events_dropped"
       in
       c.Ximd_obs.Metrics.c_value
     in
     if dropped > 0 then
       Printf.eprintf
         "ximd-serve: warning: %d observability events dropped (ring \
          overflow); traces are incomplete\n%!"
         dropped);
  if !interrupted then 130 else s.Farm.Record.max_exit_code

let serve_stdin ~domains ~queue_bound ~summary ~campaign =
  let code =
    run_campaign ~domains ~queue_bound ~summary ~campaign stdin stdout
  in
  (* After a reader hangs up, the buffer holds bytes no one can take;
     closing drops them, so the flush at exit does not raise. *)
  close_out_noerr stdout;
  code

let serve_socket ~domains ~queue_bound ~summary ~campaign path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  let rec accept_loop worst =
    match Unix.accept sock with
    | exception Sys.Break ->
      cleanup ();
      if worst = 0 then 130 else worst
    | conn, _ ->
      let input = Unix.in_channel_of_descr conn in
      let output = Unix.out_channel_of_descr conn in
      let code =
        try run_campaign ~domains ~queue_bound ~summary ~campaign input output
        with Sys.Break ->
          close_out_noerr output;
          cleanup ();
          raise Sys.Break
      in
      close_out_noerr output;
      accept_loop (max worst code)
  in
  (try accept_loop 0
   with Sys.Break ->
     cleanup ();
     130)

let run domains queue_bound socket no_summary trace_out report_out
    progress_every =
  if domains < 1 then begin
    Printf.eprintf "--domains must be at least 1\n";
    exit 1
  end;
  if queue_bound < 1 then begin
    Printf.eprintf "--queue-bound must be at least 1\n";
    exit 1
  end;
  if progress_every < 0 then begin
    Printf.eprintf "--progress-every must be non-negative\n";
    exit 1
  end;
  Printexc.record_backtrace true;
  Sys.catch_break true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let summary = not no_summary in
  let campaign = { trace_out; report_out; progress_every } in
  let code =
    match socket with
    | None -> serve_stdin ~domains ~queue_bound ~summary ~campaign
    | Some path -> serve_socket ~domains ~queue_bound ~summary ~campaign path
  in
  exit code

let exits =
  Cmd.Exit.info 130 ~doc:"interrupted (SIGINT); completed records were \
                          flushed"
  :: List.map
       (fun (code, doc) -> Cmd.Exit.info code ~doc)
       Ximd_core.Run.exit_codes

let cmd =
  let doc = "supervised batch run service (ximd serve)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Reads line-delimited JSON job specs (schema ximd-job/1) from \
         standard input or a Unix socket, executes them on a \
         Domain-sharded supervised run farm, and streams one \
         ximd-result/1 record per job in submission order — whatever \
         the domain count — followed by a ximd-summary/1 line.";
      `P
        "A job names its program (inline $(b,source), a $(b,file) path, \
         or a named $(b,workload)), a sequencing $(b,model) (xsim, \
         vsim, t500), and supervision limits: cycle fuel \
         ($(b,max_cycles)), a cycle $(b,budget), a wall-clock \
         $(b,deadline_ms) with $(b,retries), and a fault-injection \
         spec ($(b,fault)).  Malformed specs become rejected records; \
         crashing jobs become crashed records carrying a backtrace and \
         the spec for replay; the sweep always continues.";
      `P
        "The process exits with the worst record's code from the \
         canonical table.";
      `S Manpage.s_examples;
      `P "echo '{\"workload\":\"minmax\"}' | ximd-serve";
      `P "ximd-serve --domains 4 < campaign.jsonl > results.jsonl";
      `P "ximd-serve --socket /tmp/ximd.sock --domains 2" ]
  in
  Cmd.v
    (Cmd.info "ximd-serve" ~doc ~man ~exits)
    Term.(
      const run $ domains_arg $ queue_bound_arg $ socket_arg
      $ no_summary_flag $ campaign_trace_arg $ campaign_report_arg
      $ progress_every_arg)

let () = exit (Cmd.eval cmd)
