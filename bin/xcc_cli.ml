(* xcc — compile the mini source language to XIMD code and optionally
   run it.

   Observability: --explain / --sched-json / --sched-trace attach a
   Schedobs collector to the compile.  The generated code is identical
   with or without the collector (QCheck-pinned); only the artifacts
   differ.  Exit codes follow the canonical Run.exit_codes table shared
   with the simulator CLIs. *)

open Cmdliner
open Ximd_isa
module C = Ximd_compiler

let tool = "xcc"

let compile_and_go path width emit_asm run_args listing trace explain
    sched_json sched_trace =
  let source = Cli_common.read_input ~tool path in
  let obs =
    if explain || sched_json <> None || sched_trace <> None then
      Some (C.Schedobs.create ~clock:Unix.gettimeofday ())
    else None
  in
  match C.Lang.compile ~width ?obs source with
  | Error errors ->
    List.iter (Printf.eprintf "%s\n") errors;
    exit 1
  | Ok compiled ->
    (match obs with
     | None -> ()
     | Some t ->
       if explain then Format.printf "%a@." C.Schedobs.pp_explain t;
       (match sched_json with
        | None -> ()
        | Some path ->
          Cli_common.write_output ~tool path (C.Schedobs.to_json t ^ "\n"));
       (match sched_trace with
        | None -> ()
        | Some path ->
          Cli_common.write_output ~tool path (C.Schedobs.to_chrome t)));
    if listing then
      Format.printf "%a@." Ximd_core.Program.pp_listing compiled.program;
    if emit_asm then
      print_string (Ximd_asm.Source.to_source compiled.program);
    (match run_args with
     | None -> ()
     | Some args ->
       let args =
         if String.trim args = "" then []
         else
           String.split_on_char ',' args
           |> List.map (fun s ->
                match int_of_string_opt (String.trim s) with
                | Some v -> Value.of_int v
                | None -> Cli_common.bad_input "bad argument %S" s)
       in
       let setup =
         match C.Codegen.bind_args compiled args with
         | Ok setup -> setup
         | Error msg -> Cli_common.bad_input "%s" msg
       in
       let config = Ximd_core.Config.make ~n_fus:width () in
       let session =
         Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
           compiled.program
       in
       let tracer =
         if trace then Some (Ximd_core.Tracer.create ()) else None
       in
       Cli_common.run_and_report ?tracer
         ~state:(Ximd_core.Session.state session)
         ~report:(fun _ ->
           List.iteri
             (fun i v -> Format.printf "result %d = %a@." i Value.pp v)
             (C.Codegen.results compiled (Ximd_core.Session.state session)))
         (fun () -> Ximd_core.Session.run ?tracer ~setup session))

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Source file (mini language, see \
                                 lib/compiler/lang.mli).")

let width_arg =
  Arg.(value & opt int 4 & info [ "width" ] ~docv:"N"
         ~doc:"Functional units to compile for.")

let emit_asm_flag =
  Arg.(value & flag & info [ "emit-asm" ] ~doc:"Print XIMD assembly.")

let run_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run" ] ~docv:"ARGS"
        ~doc:"Run with the comma-separated integer arguments.")

let listing_flag =
  Arg.(value & flag & info [ "listing" ] ~doc:"Print the program listing.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print an address trace when \
                                             running.")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Explain the schedule: per-op placement provenance, and per \
              while-loop the achieved II next to ResMII/RecMII with the \
              binding constraint named.")

let sched_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sched-json" ] ~docv:"FILE"
        ~doc:"Write the byte-stable ximd-sched/1 scheduling report \
              (bounds, occupancy, gap decomposition) to $(docv) ('-' for \
              stdout).")

let sched_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sched-trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event view of compiler passes and \
              per-loop scheduling attempts to $(docv) ('-' for stdout).")

let cmd =
  let doc = "compiler driver for the XIMD mini language" in
  Cmd.v
    (Cmd.info "xcc" ~doc ~exits:Cli_common.exits)
    Term.(
      const compile_and_go $ file_arg $ width_arg $ emit_asm_flag $ run_arg
      $ listing_flag $ trace_flag $ explain_flag $ sched_json_arg
      $ sched_trace_arg)

let () = Cli_common.eval cmd
