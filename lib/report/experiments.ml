open Ximd_isa
module W = Ximd_workloads
module C = Ximd_compiler

let header fmt title =
  Format.fprintf fmt "@,=== %s ===@,@," title

(* ------------------------------------------------------------------ *)

let f7 fmt =
  header fmt "Figure 7 / section 2.2 — XIMD-1 data-path instruction set";
  Format.fprintf fmt "%-8s %-30s@," "Opcode" "Function";
  Format.fprintf fmt "-- integer/float arithmetic and logic --@,";
  List.iter
    (fun op ->
      Format.fprintf fmt "%-8s %s@," (Opcode.binop_to_string op)
        (Opcode.describe_binop op))
    Opcode.all_binops;
  Format.fprintf fmt "-- unary --@,";
  List.iter
    (fun op ->
      Format.fprintf fmt "%-8s %s@," (Opcode.unop_to_string op)
        (Opcode.describe_unop op))
    Opcode.all_unops;
  Format.fprintf fmt "-- compares (set the executing FU's CC) --@,";
  List.iter
    (fun op ->
      Format.fprintf fmt "%-8s %s@," (Opcode.cmpop_to_string op)
        (Opcode.describe_cmpop op))
    Opcode.all_cmpops;
  Format.fprintf fmt "-- memory and I/O --@,";
  Format.fprintf fmt "%-8s %s@," "load" "M(a + b) -> d";
  Format.fprintf fmt "%-8s %s@," "store" "a -> M(b)";
  Format.fprintf fmt "%-8s %s@," "in" "port -> d (0 when not ready)";
  Format.fprintf fmt "%-8s %s@," "out" "a -> port";
  Format.fprintf fmt "%-8s %s@," "nop" "no data operation"

(* ------------------------------------------------------------------ *)

let e1 fmt =
  header fmt "E1 / Example 1 — TPROC percolation-scheduled scalar code";
  let workload = W.Tproc.make () in
  (match W.Workload.run_checked workload.ximd with
   | Error msg -> Format.fprintf fmt "FAILED: %s@," msg
   | Ok (outcome, _) ->
     Format.fprintf fmt "schedule body: %d rows (paper: 5)@,"
       W.Tproc.body_cycles;
     Format.fprintf fmt "cycles (incl. halt row): %d@,"
       (Ximd_core.Run.cycles outcome);
     Format.fprintf fmt "result check: OK@,");
  (match Compare.of_workload workload with
   | Ok t ->
     Format.fprintf fmt "XIMD %d vs VLIW %d cycles — speedup %.2f \
                         (paper: VLIW-style code runs identically)@,"
       t.ximd.cycles t.vliw.cycles (Compare.speedup t)
   | Error msg -> Format.fprintf fmt "comparison failed: %s@," msg);
  Format.fprintf fmt "@,listing:@,%a@,"
    Ximd_core.Program.pp_listing workload.ximd.program

(* ------------------------------------------------------------------ *)

let e2 fmt =
  header fmt "E2 / Example 2 + Figure 10 — MINMAX address trace";
  let tracer = Ximd_core.Tracer.create () in
  let _, state = W.Workload.run ~tracer (W.Minmax.paper_variant ()) in
  Format.fprintf fmt "IZ = (5,3,4,7); four FUs; paper listing at the \
                      paper's addresses.@,@,";
  Ximd_core.Tracer.pp_figure10 ~comments:W.Minmax.figure10_comments fmt
    tracer;
  (* Diff against the transcription. *)
  let rows = Ximd_core.Tracer.rows tracer in
  let mismatches = ref 0 in
  List.iteri
    (fun cycle ((pcs, ccs, partition), (row : Ximd_core.Tracer.row)) ->
      let got_pcs =
        List.map
          (function Some pc -> pc | None -> -1)
          (Array.to_list row.pcs)
      in
      if
        got_pcs <> pcs
        || Ximd_core.Tracer.cc_string row.ccs <> ccs
        || Ximd_core.Partition.to_string row.partition <> partition
      then begin
        incr mismatches;
        Format.fprintf fmt "MISMATCH at cycle %d@," cycle
      end)
    (List.combine W.Minmax.figure10_expected rows);
  let result_check =
    match (W.Minmax.paper_variant ()).check state with
    | Ok () -> "min/max registers correct"
    | Error msg -> "RESULT WRONG: " ^ msg
  in
  Format.fprintf fmt "@,figure-10 agreement: %s; %s@,"
    (if !mismatches = 0 then "EXACT — all 14 cycles match"
     else Printf.sprintf "%d mismatching cycles" !mismatches)
    result_check

(* ------------------------------------------------------------------ *)

let e3 fmt =
  header fmt "E3 / Example 3 + Figure 11 — BITCOUNT1 barrier control flow";
  let tracer = Ximd_core.Tracer.create () in
  let workload = W.Bitcount.make () in
  match W.Workload.run_checked ~tracer workload.ximd with
  | Error msg -> Format.fprintf fmt "FAILED: %s@," msg
  | Ok (outcome, state) ->
    Format.fprintf fmt "n = 12 elements, 4 FUs; result check OK; %d cycles@,@,"
      (Ximd_core.Run.cycles outcome);
    (* Partition evolution, run-length encoded: the Figure 11 story. *)
    Format.fprintf fmt "partition evolution (cycle ranges):@,";
    let rows = Ximd_core.Tracer.rows tracer in
    let groups =
      List.fold_left
        (fun acc (row : Ximd_core.Tracer.row) ->
          let part = Ximd_core.Partition.to_string row.partition in
          match acc with
          | (start, _, prev) :: rest when prev = part ->
            (start, row.cycle, prev) :: rest
          | _ -> (row.cycle, row.cycle, part) :: acc)
        [] rows
    in
    List.iter
      (fun (start, stop, part) ->
        Format.fprintf fmt "  %4d..%-4d  %s@," start stop part)
      (List.rev groups);
    let stats = state.Ximd_core.State.stats in
    Format.fprintf fmt
      "@,max concurrent streams: %d (paper: forks into four threads)@,\
       busy-wait slots at the barrier: %d@,"
      stats.max_streams stats.spin_slots

(* ------------------------------------------------------------------ *)

let e4 fmt =
  header fmt "E4 / Figure 12 — IOSYNC non-blocking synchronisation";
  let workload = W.Iosync.make () in
  let describe name (variant : W.Workload.variant) =
    match W.Workload.run_checked variant with
    | Error msg ->
      Format.fprintf fmt "%s FAILED: %s@," name msg;
      None
    | Ok (outcome, state) ->
      let outs port =
        String.concat " "
          (List.map
             (fun (cycle, v) ->
               Printf.sprintf "%ld@%d" (Value.to_int32 v) cycle)
             (Ximd_machine.Ioport.output state.Ximd_core.State.io ~port))
      in
      Format.fprintf fmt
        "%s: %d cycles; port1 out (x,y,z): %s; port3 out (a,b,c): %s@," name
        (Ximd_core.Run.cycles outcome)
        (outs W.Iosync.p1_out_port)
        (outs W.Iosync.p2_out_port);
      Some (Ximd_core.Run.cycles outcome)
  in
  let xc = describe "XIMD (SS-bit sync, 2 streams)" workload.ximd in
  let vc =
    match workload.vliw with
    | Some v -> describe "VLIW (single stream)   " v
    | None -> None
  in
  match (xc, vc) with
  | Some x, Some v ->
    Format.fprintf fmt
      "speedup %.2f — the producing process \"can continue unhindered\"@,"
      (float_of_int v /. float_of_int x)
  | _ -> ()

(* ------------------------------------------------------------------ *)

let e5 fmt =
  header fmt "E5 / section 4.1 — XIMD vs VLIW comparison suite";
  let rec compare_all acc = function
    | [] -> Ok (List.rev acc)
    | (w : W.Workload.t) :: rest -> (
      match Compare.of_workload w with
      | Ok t -> compare_all ((w.name, t) :: acc) rest
      | Error _ as e -> e)
  in
  match compare_all [] (W.Suite.all ()) with
  | Error msg -> Format.fprintf fmt "FAILED: %s@," msg
  | Ok rows ->
    Format.fprintf fmt "%-10s %8s %8s %8s %8s %7s %7s %7s %7s@," "program"
      "ximd" "vliw" "speedup" "streams" "x-util" "v-util" "x-eff" "v-eff";
    let util (s : Compare.side) =
      100. *. Ximd_core.Stats.utilisation s.stats ~n_fus:s.n_fus
    and eff (s : Compare.side) =
      100. *. Ximd_core.Stats.effective_utilisation s.stats ~n_fus:s.n_fus
    in
    List.iter
      (fun (name, (t : Compare.t)) ->
        Format.fprintf fmt
          "%-10s %8d %8d %7.2fx %8d %6.1f%% %6.1f%% %6.1f%% %6.1f%%@,"
          name t.ximd.cycles t.vliw.cycles (Compare.speedup t)
          t.ximd.stats.max_streams (util t.ximd) (util t.vliw) (eff t.ximd)
          (eff t.vliw))
      rows;
    Format.fprintf fmt
      "@,(util = data ops per FU-cycle slot; eff excludes busy-wait slots \
       from the denominator)@,";
    let wins =
      List.length (List.filter (fun (_, t) -> Compare.speedup t > 1.05) rows)
    in
    Format.fprintf fmt
      "@,%d of %d programs show a significant performance increase \
       (paper: \"a significant performance increase on many programs\")@,"
      wins (List.length rows)

(* ------------------------------------------------------------------ *)

let prototype_cycle_ns = 85.0

let e6 fmt =
  header fmt "E6 / section 4.3 — prototype performance projection (85 ns)";
  let peak = Ximd_core.Stats.peak_mips ~n_fus:8 ~cycle_ns:prototype_cycle_ns in
  Format.fprintf fmt
    "peak: %.1f MIPS / %.1f MFLOPS (paper: \"in excess of 90 MIPS/90 \
     MFLOPS\")@,@,"
    peak peak;
  Format.fprintf fmt "%-10s %10s %10s %9s %9s@," "program" "MIPS" "MFLOPS"
    "util" "eff-util";
  List.iter
    (fun workload ->
      match W.Workload.run_checked workload.W.Workload.ximd with
      | Error msg ->
        Format.fprintf fmt "%-10s failed: %s@," workload.W.Workload.name msg
      | Ok (_, state) ->
        let stats = state.Ximd_core.State.stats in
        let n_fus = Ximd_core.State.n_fus state in
        Format.fprintf fmt "%-10s %10.1f %10.1f %8.1f%% %8.1f%%@,"
          workload.W.Workload.name
          (Ximd_core.Stats.mips stats ~cycle_ns:prototype_cycle_ns)
          (Ximd_core.Stats.mflops stats ~cycle_ns:prototype_cycle_ns)
          (100. *. Ximd_core.Stats.utilisation stats ~n_fus)
          (100. *. Ximd_core.Stats.effective_utilisation stats ~n_fus))
    (W.Suite.all ())

(* ------------------------------------------------------------------ *)

let e7 fmt =
  header fmt "E7 / Figure 13 + section 4.2 — tiles and packing";
  match Kernels.menus () with
  | Error errors -> Format.fprintf fmt "FAILED: %s@," (String.concat "; " errors)
  | Ok menus ->
    Format.fprintf fmt "tile menus (pareto-optimal width x length):@,";
    List.iter
      (fun (name, tiles) ->
        Format.fprintf fmt "  %-12s" name;
        List.iter
          (fun (t : C.Tile.t) ->
            Format.fprintf fmt " %dx%d" t.width t.length)
          tiles;
        Format.fprintf fmt "@,")
      menus;
    (match C.Packing.pack_density ~n_fus:8 menus with
     | Error msg -> Format.fprintf fmt "density packing failed: %s@," msg
     | Ok packing ->
       Format.fprintf fmt
         "@,packing optimised for static code density: %d rows (lower \
          bound %d)@,%s"
         packing.height packing.lower_bound
         (C.Packing.render packing));
    let deps =
      [ ("saxpy_step", "reduce8"); ("fir4", "reduce8"); ("addrgen", "fir4") ]
    in
    (match C.Packing.pack_time ~n_fus:8 ~deps menus with
     | Error msg -> Format.fprintf fmt "time packing failed: %s@," msg
     | Ok packing ->
       Format.fprintf fmt
         "@,packing optimised for execution time (deps: addrgen->fir4, \
          {saxpy,fir4}->reduce8): makespan %d (lower bound %d)@,%s"
         packing.height packing.lower_bound
         (C.Packing.render packing));
    (* Materialise the schedule into a runnable multi-stream program
       (Threader) and measure the real barrier-levelled makespan. *)
    match
      C.Threader.build ~threads:Kernels.all ~deps ~wires:[] ()
    with
    | Error errors ->
      Format.fprintf fmt "materialisation failed: %s@,"
        (String.concat "; " errors)
    | Ok threaded -> (
      match C.Threader.run threaded ~args:[] with
      | Error msg -> Format.fprintf fmt "run failed: %s@," msg
      | Ok (outcome, state) ->
        Format.fprintf fmt
          "@,materialised as a runnable XIMD program (levels %s): %d \
           cycles measured, max %d concurrent streams, %d barrier \
           spin-slots — vs the packer's idealised makespan (barriers \
           and dispatch rows are the overhead).@,"
          (String.concat " | "
             (List.map (String.concat ",") threaded.levels))
          (Ximd_core.Run.cycles outcome)
          state.Ximd_core.State.stats.max_streams
          state.Ximd_core.State.stats.spin_slots)

(* ------------------------------------------------------------------ *)

let e8 fmt =
  header fmt
    "E8 / section 3.3 — partial barriers among thread pairs (PAIRSYNC)";
  let lengths = [| 1; 1; 60; 60; 2; 2; 55; 55 |] in
  let phase2 = [| 120; 4; 4; 4 |] in
  let measure masked =
    match
      W.Workload.run_checked
        (W.Pairsync.make ~masked ~lengths ~phase2 ()).ximd
    with
    | Ok (outcome, state) ->
      Some (Ximd_core.Run.cycles outcome, state.Ximd_core.State.stats)
    | Error msg ->
      Format.fprintf fmt "FAILED: %s@," msg;
      None
  in
  match (measure true, measure false) with
  | Some (mc, ms), Some (fc, _) ->
    Format.fprintf fmt
      "eight width-1 threads in four pairs; pair 0 has quick inputs but \
       heavy private work.@,@,\
       partner-only synchronisation (masked ALL/SS): %5d cycles (max %d \
       streams)@,\
       all-threads synchronisation:                  %5d cycles@,@,\
       speedup %.2f — \"synchronizations between only some of the \
       program threads\" (paper 3.3) pay off exactly when thread \
       workloads are skewed.@,"
      mc ms.max_streams fc
      (float_of_int fc /. float_of_int mc)
  | _ -> ()

(* ------------------------------------------------------------------ *)

let sched fmt =
  header fmt
    "SCHED — heuristic II vs ResMII/RecMII bounds over the loop suite";
  Format.fprintf fmt "%-44s %5s %6s %6s %4s %4s  %s@," "loop body" "width"
    "ResMII" "RecMII" "II" "gap" "binding constraint";
  List.iter
    (fun (name, body) ->
      List.iter
        (fun width ->
          let b = C.Pipeliner.bounds ~width body in
          match C.Pipeliner.schedule ~width body with
          | Error msg ->
            Format.fprintf fmt "%-44s %5d  failed: %s@," name width msg
          | Ok s ->
            let lower = max b.C.Schedobs.res_mii b.C.Schedobs.rec_mii in
            Format.fprintf fmt "%-44s %5d %6d %6d %4d %4d  %s@," name width
              b.C.Schedobs.res_mii b.C.Schedobs.rec_mii s.ii (s.ii - lower)
              (C.Schedobs.binding_name
                 (C.Schedobs.binding_of b ~ii:s.ii)))
        [ 2; 4; 8 ];
      Format.fprintf fmt "@,")
    Kernels.loop_bodies;
  Format.fprintf fmt
    "gap = II - max(ResMII, RecMII); gap 0 means the iterative modulo \
     scheduler achieved the analytic lower bound, so every heuristic II \
     in this table is certified optimal for the given machine model.@,"

let run_all fmt =
  f7 fmt; e1 fmt; e2 fmt; e3 fmt; e4 fmt; e5 fmt; e6 fmt; e7 fmt; e8 fmt;
  sched fmt

let known =
  [ ("f7", f7); ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("sched", sched); ("all", run_all) ]
