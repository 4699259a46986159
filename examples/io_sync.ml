(* IOSYNC (paper Figure 12): two I/O-bound processes run as separate
   SSETs, exchanging values through the shared register file and
   signalling availability through the synchronisation bits — each
   process proceeds until a data dependency actually blocks it.

     dune exec examples/io_sync.exe *)

module W = Ximd_workloads

let () =
  Ximd_report.Experiments.e4 Format.std_formatter;
  Format.printf "@.";
  (* Sweep the device latencies: the XIMD advantage grows as both ports
     spend longer producing, because the single-stream VLIW serialises
     the two processes' waits. *)
  Format.printf "latency sweep (gap per delivery on both ports):@.";
  List.iter
    (fun gap ->
      let lat = { W.Iosync.first = gap; second = gap; third = gap } in
      let workload = W.Iosync.make ~p1_latencies:lat ~p2_latencies:lat () in
      match Ximd_report.Compare.of_workload workload with
      | Error msg -> Format.printf "  gap %3d: failed: %s@." gap msg
      | Ok t ->
        Format.printf "  gap %3d: XIMD %4d vs VLIW %4d cycles — %.2fx@."
          gap t.ximd.cycles t.vliw.cycles
          (Ximd_report.Compare.speedup t))
    [ 0; 5; 10; 20; 40; 80 ]
