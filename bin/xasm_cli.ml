(* xasm — assembler / disassembler for XIMD programs. *)

open Cmdliner

let assemble input output listing =
  match Ximd_asm.Source.parse_file input with
  | Error e ->
    Cli_common.bad_input "%s: %s" input
      (Format.asprintf "%a" Ximd_asm.Source.pp_error e)
  | Ok program ->
    if listing then
      Format.printf "%a@." Ximd_core.Program.pp_listing program;
    (match output with
     | None -> ()
     | Some path ->
       let image = Ximd_core.Program.encode program in
       Cli_common.write_output ~tool:"xasm" path (Bytes.to_string image);
       Printf.printf "wrote %d bytes (%d rows x %d FUs, 192-bit parcels)\n"
         (Bytes.length image)
         (Ximd_core.Program.length program)
         (Ximd_core.Program.n_fus program))

let disassemble input =
  let image = Bytes.of_string (Cli_common.read_input ~tool:"xasm" input) in
  match Ximd_core.Program.decode image with
  | Error msg -> Cli_common.bad_input "%s: %s" input msg
  | Ok program -> print_string (Ximd_asm.Source.to_source program)

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Input file (.xasm source or binary image).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"IMAGE"
        ~doc:"Write the bit-level program image here.")

let listing_flag =
  Arg.(value & flag & info [ "listing" ] ~doc:"Print the program listing.")

let disassemble_flag =
  Arg.(
    value & flag
    & info [ "d"; "disassemble" ]
        ~doc:"Treat FILE as a binary image and print source.")

let run input output listing dis =
  if dis then disassemble input else assemble input output listing

let cmd =
  let doc = "XIMD assembler and disassembler" in
  Cmd.v
    (Cmd.info "xasm" ~doc ~exits:Cli_common.ok_or_bad_input)
    Term.(const run $ input_arg $ output_arg $ listing_flag
          $ disassemble_flag)

let () = Cli_common.eval cmd
