(* MINMAX (paper Example 2, Figure 10): run the paper's listing on the
   sample data set IZ = (5,3,4,7) and print the exact published address
   trace — then run it on fresh data.

     dune exec examples/minmax_trace.exe *)

module W = Ximd_workloads

let () =
  Format.printf
    "Reproducing Figure 10: MINMAX on IZ = (5,3,4,7), 4 FUs.@.@.";
  Ximd_report.Experiments.e2 Format.std_formatter;
  Format.printf "@.";
  (* The same program generalises: fresh data, halting finish. *)
  let data = [| 9; -2; 14; 0; 3; 99; -50; 7 |] in
  let workload = W.Minmax.make ~data () in
  match Ximd_report.Compare.of_workload workload with
  | Error msg -> Format.printf "failed: %s@." msg
  | Ok t ->
    Format.printf
      "fresh data %s:@.  XIMD %d cycles, VLIW %d cycles — %.2fx from \
       executing both conditional updates' branches in parallel@."
      (String.concat ","
         (List.map string_of_int (Array.to_list data)))
      t.ximd.cycles t.vliw.cycles
      (Ximd_report.Compare.speedup t)
