(* vsim — the companion VLIW simulator (paper §4.1). *)

open Cmdliner

let cmd =
  let doc = "cycle-accurate VLIW baseline simulator" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Assembles $(i,FILE) and executes it on the VLIW baseline: one \
         global sequencer driving all functional units.  The program \
         must be control-consistent (every parcel in a row carries the \
         same control fields)." ]
  in
  Cmd.v
    (Cmd.info "vsim" ~doc ~man ~exits:Cli_common.exits)
    (Cli_common.simulator_term ~tool:"vsim"
       (Term.const Ximd_core.Engine.Global))

let () = Cli_common.eval cmd
