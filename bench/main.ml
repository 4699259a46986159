(* Paper experiment driver.

   Usage:
     bench/main.exe          — regenerate every paper figure/table and
                               every ablation
     bench/main.exe e2 e5    — run selected experiments (f7, e1..e8,
                               sched, a1..a6, all, ablations)

   The simulator's own speed is measured by the repository benchmark,
   bench/ledger (see bench/ledger/README.md). *)

let known = Ximd_report.Experiments.known @ Ximd_report.Ablations.known

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = if args = [] then [ "all"; "ablations" ] else args in
  (* Reject typos before any run starts. *)
  let experiments =
    List.map
      (fun arg ->
        match List.assoc_opt arg known with
        | Some f -> f
        | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" arg
            (String.concat ", " (List.map fst known));
          exit 1)
      args
  in
  List.iter (fun f -> Format.printf "@[<v>%t@]@." f) experiments
