module W = Ximd_workloads
module C = Ximd_compiler

let header fmt title = Format.fprintf fmt "@,--- %s ---@,@," title

(* ------------------------------------------------------------------ *)

(* The naive rule: same PC = same SSET (halted FUs grouped apart). *)
let naive_partition (pcs : int option array) =
  let n = Array.length pcs in
  let groups = Hashtbl.create 7 in
  Array.iteri
    (fun fu pc ->
      let key = match pc with Some a -> a | None -> -1 in
      Hashtbl.replace groups key
        (fu :: (try Hashtbl.find groups key with Not_found -> [])))
    pcs;
  ignore n;
  Ximd_core.Partition.of_ssets
    (Hashtbl.fold (fun _ fus acc -> fus :: acc) groups [])

let a1_partition_rule fmt =
  header fmt
    "A1 — partition by executed-control signature vs naive same-PC rule";
  let tracer = Ximd_core.Tracer.create () in
  ignore (W.Workload.run ~tracer (W.Minmax.paper_variant ()));
  let rows = Ximd_core.Tracer.rows tracer in
  Format.fprintf fmt "%-6s %-14s %-14s %-14s %s@," "cycle" "figure 10"
    "signature rule" "same-PC rule" "naive verdict";
  let naive_wrong = ref 0 in
  List.iteri
    (fun cycle ((_, _, expected), (row : Ximd_core.Tracer.row)) ->
      let ours = Ximd_core.Partition.to_string row.partition in
      let naive = Ximd_core.Partition.to_string (naive_partition row.pcs) in
      let verdict = if naive = expected then "ok" else "WRONG" in
      if naive <> expected then incr naive_wrong;
      Format.fprintf fmt "%-6d %-14s %-14s %-14s %s@," cycle expected ours
        naive verdict)
    (List.combine W.Minmax.figure10_expected rows);
  Format.fprintf fmt
    "@,signature rule: 14/14 cycles correct; same-PC rule: %d/14 wrong \
     (it cannot distinguish data-dependent convergence from a join — \
     e.g. cycle 9, where all FUs sit at 03: in three separate SSETs).@,"
    !naive_wrong

(* ------------------------------------------------------------------ *)

let a2_packing_heuristic fmt =
  header fmt "A2 — density packing: heuristic menu choice vs exhaustive";
  match Kernels.menus () with
  | Error errors ->
    Format.fprintf fmt "FAILED: %s@," (String.concat "; " errors)
  | Ok menus ->
    let run ~exhaustive_limit label =
      match C.Packing.pack_density ~n_fus:8 ~exhaustive_limit menus with
      | Error msg -> Format.fprintf fmt "%s failed: %s@," label msg
      | Ok packing ->
        Format.fprintf fmt "%-28s height %2d (lower bound %d)@," label
          packing.height packing.lower_bound
    in
    run ~exhaustive_limit:0 "min-area heuristic + FFD:";
    run ~exhaustive_limit:100_000 "exhaustive tile choice + FFD:"

(* ------------------------------------------------------------------ *)

let a3_pipelining fmt =
  header fmt "A3 — modulo scheduling: II vs width over the loop suite";
  let bodies = Kernels.loop_bodies in
  Format.fprintf fmt "%-44s" "loop body \\ width";
  List.iter (fun w -> Format.fprintf fmt "  w=%d" w) [ 1; 2; 4; 8 ];
  Format.fprintf fmt "@,";
  List.iter
    (fun (name, body) ->
      Format.fprintf fmt "%-44s" name;
      List.iter
        (fun width ->
          match C.Pipeliner.schedule ~width body with
          | Ok sched -> Format.fprintf fmt "  %3d" sched.ii
          | Error _ -> Format.fprintf fmt "    -")
        [ 1; 2; 4; 8 ];
      Format.fprintf fmt "@,")
    bodies;
  Format.fprintf fmt
    "@,dot product is resource-bound (II halves with width until 1); \
     first difference plateaus at II=3 under the scheduler's \
     no-address-analysis memory model (the carried store->load edge is \
     conservative); the recurrence pins II at 2 regardless of width — \
     no amount of hardware parallelism beats a loop-carried chain.@,"

(* ------------------------------------------------------------------ *)

let guarded_func =
  let open Ximd_isa in
  let x = 0 and t1 = 1 and t2 = 2 and t3 = 3 and t4 = 4 and res = 5 in
  { C.Ir.name = "guarded";
    params = [ x ];
    results = [ res ];
    blocks =
      [ { C.Ir.label = "b1";
          body =
            [ C.Ir.Bin (Opcode.Imult, C.Ir.V x, C.Ir.C 3l, t1);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V x, C.Ir.C 7l, t2);
              C.Ir.Cmp (Opcode.Lt, C.Ir.V t1, C.Ir.C 1000l, 0) ];
          term = C.Ir.Branch (0, "b2", "cold1") };
        { C.Ir.label = "b2";
          body =
            [ C.Ir.Bin (Opcode.Iadd, C.Ir.V t1, C.Ir.V t2, t3);
              C.Ir.Bin (Opcode.Imult, C.Ir.V t1, C.Ir.C 2l, t4);
              C.Ir.Cmp (Opcode.Gt, C.Ir.V t2, C.Ir.C 50l, 1) ];
          term = C.Ir.Branch (1, "b3", "cold2") };
        { C.Ir.label = "b3";
          body = [ C.Ir.Bin (Opcode.Iadd, C.Ir.V t3, C.Ir.V t4, res) ];
          term = C.Ir.Return };
        { C.Ir.label = "cold1";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C 1l, res) ];
          term = C.Ir.Return };
        { C.Ir.label = "cold2";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C 2l, res) ];
          term = C.Ir.Return } ] }

let a4_trace_scheduling fmt =
  header fmt "A4 — trace scheduling: region vs block-at-a-time rows";
  Format.fprintf fmt "%-8s %-12s %-16s %s@," "width" "region rows"
    "blockwise rows" "saved";
  List.iter
    (fun width ->
      match C.Tracesched.compile ~width guarded_func with
      | Error errors ->
        Format.fprintf fmt "w=%d failed: %s@," width
          (String.concat "; " errors)
      | Ok result ->
        Format.fprintf fmt "%-8d %-12d %-16d %d@," width result.region_rows
          result.blockwise_rows
          (result.blockwise_rows - result.region_rows))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)

let a5_exposed_pipeline fmt =
  header fmt
    "A5 — research-model code on the prototype's pipelined datapath";
  List.iter
    (fun latency ->
      let workload = W.Tproc.make () in
      let config = Ximd_core.Config.make ~n_fus:4 ~result_latency:latency () in
      let variant = { workload.ximd with W.Workload.config } in
      let outcome, state = W.Workload.run variant in
      let verdict =
        match variant.check state with
        | Ok () -> "correct"
        | Error _ -> "WRONG RESULT (stale operands)"
      in
      Format.fprintf fmt "latency %d: %d cycles, %s@," latency
        (Ximd_core.Run.cycles outcome)
        verdict)
    [ 1; 2; 3 ];
  Format.fprintf fmt
    "@,the architecture is fully exposed: code scheduled for the \
     single-cycle research model silently miscomputes on a pipelined \
     datapath — rescheduling for the latency is the compiler's job \
     (paper §2.3: pipelining \"must be addressed prior to \
     implementation\").@,@,";
  (* And the fix: compile with the machine's latency. *)
  let source =
    "func f(a, b) {\n\
     t = a * b + 3;\n\
     if (t >= 100) { t = t - 100; } else { t = t + b; }\n\
     return t;\n\
     }"
  in
  Format.fprintf fmt "the fix — Codegen.compile ~latency:L:@,";
  List.iter
    (fun latency ->
      match C.Lang.parse source with
      | Error _ -> ()
      | Ok func -> (
        match C.Codegen.compile ~width:4 ~latency func with
        | Error _ -> ()
        | Ok compiled -> (
          let config =
            Ximd_core.Config.make ~n_fus:4 ~result_latency:latency ()
          in
          let session =
            Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
              compiled.program
          in
          let setup =
            Result.get_ok
              (C.Codegen.bind_args compiled
                 (List.map Ximd_isa.Value.of_int [ 20; 8 ]))
          in
          match Ximd_core.Session.run ~setup session with
          | Ximd_core.Run.Halted { cycles } ->
            let got =
              match
                C.Codegen.results compiled (Ximd_core.Session.state session)
              with
              | [ v ] -> Ximd_isa.Value.to_int v
              | _ -> -1
            in
            Format.fprintf fmt
              "  compiled for latency %d, run at latency %d: f(20,8) = %d \
               (%s), %d cycles, %d static rows@,"
              latency latency got
              (if got = 63 then "correct" else "WRONG")
              cycles compiled.static_rows
          | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
          | Ximd_core.Run.Budget_exceeded _ ->
            Format.fprintf fmt "  latency %d: hung@," latency)))
    [ 1; 2; 3 ]

let a6_pipelined_codegen fmt =
  header fmt
    "A6 — generated pipelined loops: measured cycles vs rolled loops";
  let open Ximd_isa in
  let dot_ops =
    [| C.Ir.Load (C.Ir.C 400l, C.Ir.V 1, 10);
       C.Ir.Load (C.Ir.C 500l, C.Ir.V 1, 11);
       C.Ir.Bin (Opcode.Imult, C.Ir.V 10, C.Ir.V 11, 12);
       C.Ir.Bin (Opcode.Iadd, C.Ir.V 2, C.Ir.V 12, 2);
       C.Ir.Bin (Opcode.Iadd, C.Ir.V 1, C.Ir.C 1l, 1) |]
  in
  Format.fprintf fmt "%-8s %4s %6s %8s %14s %14s %9s@," "width" "II"
    "stages" "unroll" "pipelined(cyc)" "rolled(cyc)" "speedup";
  List.iter
    (fun width ->
      match C.Kernelgen.compile ~width ~live_out:[ 2 ] dot_ops with
      | Error msg -> Format.fprintf fmt "w=%d failed: %s@," width msg
      | Ok k -> (
        let trip = k.min_trip + (((64 - k.min_trip) / k.unroll) * k.unroll) in
        let mem =
          List.concat
            (List.init trip (fun i ->
               [ (400 + i, Value.of_int (i + 1));
                 (500 + i, Value.of_int ((2 * i) - 3)) ]))
        in
        (* The pipelined and rolled codings run on one session — same
           machine shape, programs swapped in by State.reset. *)
        let config =
          Ximd_core.Config.make ~n_fus:width ~max_cycles:100_000 ()
        in
        let session =
          Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
            k.program
        in
        let run_prog program trip_reg extra_init =
          let setup (state : Ximd_core.State.t) =
            Ximd_machine.Regfile.set state.regs trip_reg (Value.of_int trip);
            extra_init state;
            List.iter (fun (a, v) -> Ximd_core.State.mem_set state a v) mem
          in
          match Ximd_core.Session.run ~program ~setup session with
          | Ximd_core.Run.Halted { cycles } -> Some cycles
          | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
          | Ximd_core.Run.Budget_exceeded _ ->
            None
        in
        let pipelined =
          run_prog k.program k.trip_reg (fun _ -> ())
        in
        let rolled_func =
          C.Kernelgen.rolled_reference ~trip:99 ~induction:1 ~live_out:[ 2 ]
            dot_ops
        in
        let rolled =
          match C.Codegen.compile ~width rolled_func with
          | Error _ -> None
          | Ok compiled -> (
            match compiled.param_regs with
            | (_, trip_reg) :: _ ->
              run_prog compiled.program trip_reg (fun _ -> ())
            | [] -> None)
        in
        match (pipelined, rolled) with
        | Some p, Some r ->
          Format.fprintf fmt "%-8d %4d %6d %8d %14d %14d %8.2fx@," width k.ii
            k.stages k.unroll p r
            (float_of_int r /. float_of_int p)
        | _ -> Format.fprintf fmt "w=%d: run failed@," width))
    [ 2; 4; 8 ];
  Format.fprintf fmt
    "@,the generated kernels (ramp + rotating kernel + drain, with \
     modulo variable expansion) approach one iteration per II cycles; \
     the rolled loop pays the full body critical path plus compare and \
     branch rows every iteration.@,"

let run_all fmt =
  a1_partition_rule fmt;
  a2_packing_heuristic fmt;
  a3_pipelining fmt;
  a4_trace_scheduling fmt;
  a5_exposed_pipeline fmt;
  a6_pipelined_codegen fmt

let known =
  [ ("a1", a1_partition_rule); ("a2", a2_packing_heuristic);
    ("a3", a3_pipelining); ("a4", a4_trace_scheduling);
    ("a5", a5_exposed_pipeline); ("a6", a6_pipelined_codegen);
    ("ablations", run_all) ]
