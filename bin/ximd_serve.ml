(* ximd-serve — the batch run service (`ximd serve`).

   Reads line-delimited ximd-job/1 specs from stdin (or a Unix socket),
   runs them on the supervised farm, and streams one ximd-result/1 line
   per job in submission order, followed by one ximd-summary/1 line.
   The process exit code is the worst record's slot in the canonical
   exit-code table; SIGINT flushes every completed record, drains the
   queue into Dropped records, and exits 130. *)

open Cmdliner
module Farm = Ximd_farm

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

(* Job lines, read through a chunk of the input so that no line is held
   past [Source.max_file_bytes], the cap every input file has: the rest
   of a longer line is read and dropped, and the line comes back as
   [Error] with a reason that quotes none of it.  A last line without
   a newline still counts. *)
type lines = {
  input : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let lines input =
  { input; chunk = Bytes.create 65536; pos = 0; len = 0;
    line = Buffer.create 256 }

let rec newline r i =
  if i = r.len || Bytes.get r.chunk i = '\n' then i else newline r (i + 1)

(* The next line without its newline, or [None] at the end of the
   input. *)
let next_line r =
  let cap = Ximd_asm.Source.max_file_bytes in
  Buffer.clear r.line;
  let finish ~long =
    if long then begin
      Buffer.reset r.line;
      Error (Printf.sprintf "line longer than %d bytes" cap)
    end
    else Ok (Buffer.contents r.line)
  in
  let rec go ~long =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.input r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      if long || Buffer.length r.line > 0 then Some (finish ~long) else None
    else begin
      let stop = newline r r.pos in
      let room = cap - Buffer.length r.line in
      let n = stop - r.pos in
      Buffer.add_subbytes r.line r.chunk r.pos (min n room);
      let long = long || n > room in
      if stop < r.len then begin
        r.pos <- stop + 1;
        Some (finish ~long)
      end
      else begin
        r.pos <- r.len;
        go ~long
      end
    end
  in
  go ~long:false

(* One campaign on the farm [opts] describe: job lines from [input],
   result lines to [output].  Returns the worst exit code seen, or 130
   if interrupted.  Telemetry is per-campaign: in socket mode each
   connection gets a fresh observer and overwrites the trace/report
   files. *)
let run_campaign ~opts ~queue_bound ~summary input output =
  let obs = Cli_common.farm_observer opts in
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
  let farm =
    Farm.Farm.create ~domains:opts.Cli_common.domains ~queue_bound ?obs ~emit ()
  in
  let interrupted = ref false in
  (try
     let input = lines input in
     let rec loop () =
       if Atomic.get reader_gone then Farm.Farm.interrupt farm
       else
         match next_line input with
         | Some (Ok "") -> loop ()
         | Some (Ok line) ->
           ignore (Farm.Farm.submit_line farm line);
           loop ()
         | Some (Error reason) ->
           ignore (Farm.Farm.reject_line farm reason);
           loop ()
         | None | (exception Sys_error _) -> ()
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
  Cli_common.write_farm_observer ~tool:"ximd-serve" opts obs;
  if !interrupted then 130 else s.Farm.Record.max_exit_code

let serve_stdin ~opts ~queue_bound ~summary =
  let code = run_campaign ~opts ~queue_bound ~summary stdin stdout in
  (* After a reader hangs up, the buffer holds bytes no one can take;
     closing drops them, so the flush at exit does not raise. *)
  close_out_noerr stdout;
  code

let serve_socket ~opts ~queue_bound ~summary path =
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
        try run_campaign ~opts ~queue_bound ~summary input output
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

let run opts queue_bound socket no_summary =
  if queue_bound < 1 then
    Cli_common.bad_input "--queue-bound must be at least 1";
  Printexc.record_backtrace true;
  Sys.catch_break true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let summary = not no_summary in
  let code =
    match socket with
    | None -> serve_stdin ~opts ~queue_bound ~summary
    | Some path -> serve_socket ~opts ~queue_bound ~summary path
  in
  exit code

let exits =
  Cmd.Exit.info 130 ~doc:"interrupted (SIGINT); completed records were \
                          flushed"
  :: Cli_common.exits

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
         spec ($(b,fault)).  Malformed specs, and job lines longer \
         than 16 MiB, become rejected records; \
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
      const run $ Cli_common.farm_term () $ queue_bound_arg $ socket_arg
      $ no_summary_flag)

let () = Cli_common.eval cmd
