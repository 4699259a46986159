(* xsim — the XIMD architecture simulator (paper §4.1). *)

open Cmdliner

let t500_flag =
  Arg.(
    value & flag
    & info [ "t500" ]
        ~doc:"Run under the TRACE/500 two-sequencer restriction (paper               1.4): two fixed FU banks, each with one sequencer;               bank-inconsistent programs are rejected.")

let cmd =
  let doc = "cycle-accurate XIMD-1 simulator" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Assembles $(docv) and executes it on the XIMD simulator: one \
         sequencer per functional unit, shared condition codes and \
         synchronisation signals, dynamic SSET partitioning.";
      `S Manpage.s_examples;
      `P "xsim --trace --dump-regs r3,r4 minmax.xasm";
      `P "xsim --detect-deadlock --postmortem json pairsync.xasm";
      `P
        "xsim --inject ss@10:1,halt@20:0 --record-hazards \
         --detect-deadlock minmax.xasm";
      `P "xsim --trace-events trace.json --metrics - minmax.xasm";
      `P "xsim --profile --timeline pairsync.xasm" ]
  in
  let sim_term =
    Term.(
      const (fun t500 ->
          if t500 then Ximd_core.Engine.Banked else Ximd_core.Engine.Per_fu)
      $ t500_flag)
  in
  Cmd.v
    (Cmd.info "xsim" ~doc ~man ~exits:Cli_common.exits)
    (Cli_common.simulator_term sim_term)

let () = exit (Cmd.eval cmd)
