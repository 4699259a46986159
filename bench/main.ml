(* Paper experiment driver.

   Usage:
     bench/main.exe          — regenerate every paper figure/table and
                               every ablation
     bench/main.exe e2 e5    — run selected experiments (f7, e1..e8,
                               sched, a1..a6, all, ablations)

   The simulator's own speed is measured by the repository benchmark,
   bench/ledger (see bench/ledger/README.md). *)

open Cmdliner

let known = Ximd_report.Experiments.known @ Ximd_report.Ablations.known

(* An unknown id is refused before any run starts. *)
let ids =
  Arg.(
    value
    & pos_all (enum (List.map (fun (id, _) -> (id, id)) known))
        [ "all"; "ablations" ]
    & info [] ~docv:"EXPERIMENT")

let run ids =
  List.iter (fun id -> Format.printf "@[<v>%t@]@." (List.assoc id known)) ids

let () =
  Cli_common.eval
    (Cmd.v
       (Cmd.info "main" ~doc:"paper experiment driver"
          ~exits:Cli_common.ok_or_bad_input)
       Term.(const run $ ids))
