(* Prototype-configuration tests (paper §4.3): 3-stage pipelined
   datapath with exposed latency, traditional sequencer, distributed
   memory. *)

open Ximd_isa
module B = Ximd_asm.Builder

let value = Alcotest.testable Value.pp Value.equal

let run ?(latency = 3) ?(n_fus = 1) build =
  let t = B.create ~n_fus in
  let regs = build t in
  let program = B.build t in
  let config =
    Ximd_core.Config.make ~n_fus ~result_latency:latency ~max_cycles:1000 ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let outcome = Ximd_core.Session.run session in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome);
  (Ximd_core.Session.state session, regs)

let test_exposed_latency_stale_read () =
  (* Back-to-back dependent ops read the stale value: no interlocks. *)
  let state, (r1, r2) =
    run (fun t ->
      let r1 = B.reg t "r1" and r2 = B.reg t "r2" in
      B.row t [ B.d (B.mov (B.imm 5) r1) ];
      B.row t [ B.d (B.iadd (B.rop r1) (B.imm 1) r2) ];
      B.halt_row t;
      (r1, r2))
  in
  Alcotest.check value "r1 eventually 5" (Value.of_int 5)
    (Ximd_machine.Regfile.read state.regs r1);
  (* r2 = old r1 (0) + 1, because r1's write-back had not happened. *)
  Alcotest.check value "r2 read stale r1" (Value.of_int 1)
    (Ximd_machine.Regfile.read state.regs r2)

let test_spaced_code_correct () =
  (* With latency-1 spacing between dependent ops, results are normal. *)
  let state, (r1, r2) =
    run (fun t ->
      let r1 = B.reg t "r1" and r2 = B.reg t "r2" in
      B.row t [ B.d (B.mov (B.imm 5) r1) ];
      B.row t [];
      B.row t [];
      B.row t [ B.d (B.iadd (B.rop r1) (B.imm 1) r2) ];
      B.halt_row t;
      (r1, r2))
  in
  Alcotest.check value "r2 = 6" (Value.of_int 6)
    (Ximd_machine.Regfile.read state.regs r2);
  ignore r1

let test_drain_after_halt () =
  (* A write issued in the final row still lands (pipeline drains). *)
  let state, r =
    run (fun t ->
      let r = B.reg t "r" in
      B.row t ~ctl:B.halt [ B.d (B.mov (B.imm 7) r) ];
      r)
  in
  Alcotest.check value "write drained" (Value.of_int 7)
    (Ximd_machine.Regfile.read state.regs r)

let test_latency_one_unchanged () =
  (* Research model: dependent ops one row apart work. *)
  let state, (r1, r2) =
    run ~latency:1 (fun t ->
      let r1 = B.reg t "r1" and r2 = B.reg t "r2" in
      B.row t [ B.d (B.mov (B.imm 5) r1) ];
      B.row t [ B.d (B.iadd (B.rop r1) (B.imm 1) r2) ];
      B.halt_row t;
      (r1, r2))
  in
  ignore r1;
  Alcotest.check value "r2 = 6" (Value.of_int 6)
    (Ximd_machine.Regfile.read state.regs r2)

let test_store_latency () =
  (* Stores also traverse the pipeline: a load issued before the store's
     write-back sees the old memory word. *)
  let state, (r1, r2) =
    run (fun t ->
      let r1 = B.reg t "early" and r2 = B.reg t "late" in
      B.row t [ B.d (B.store (B.imm 42) (B.imm 100)) ];
      B.row t [ B.d (B.load (B.imm 100) (B.imm 0) r1) ];
      B.row t [];
      B.row t [];
      B.row t [ B.d (B.load (B.imm 100) (B.imm 0) r2) ];
      B.halt_row t;
      (r1, r2))
  in
  Alcotest.check value "early load sees old word" Value.zero
    (Ximd_machine.Regfile.read state.regs r1);
  Alcotest.check value "late load sees the store" (Value.of_int 42)
    (Ximd_machine.Regfile.read state.regs r2)

let test_cc_stays_single_cycle () =
  (* "Non-pipelined Control Path": a branch one row after its compare
     still works at datapath latency 3. *)
  let state, r =
    run (fun t ->
      let r = B.reg t "r" in
      B.row t [ B.d (B.eq (B.imm 1) (B.imm 1)) ];
      B.row t ~ctl:(B.if_cc 0 (B.lbl "yes") (B.lbl "no")) [];
      B.label t "yes";
      B.row t ~ctl:(B.goto (B.lbl "fin")) [ B.d (B.mov (B.imm 1) r) ];
      B.label t "no";
      B.row t ~ctl:(B.goto (B.lbl "fin")) [ B.d (B.mov (B.imm 2) r) ];
      B.label t "fin";
      B.halt_row t;
      r)
  in
  Alcotest.check value "took the true path" (Value.of_int 1)
    (Ximd_machine.Regfile.read state.regs r)

let test_prototype_config_runs () =
  (* The full §4.3 configuration: distributed memory, prototype
     sequencer with fall-through, 3-stage pipeline.  FU0 works in its
     own memory bank. *)
  let t = B.create ~n_fus:8 in
  let r = B.reg t "r" in
  B.row t ~ctl:B.fallthrough [ B.d (B.store (B.imm 9) (B.imm 5)) ];
  B.row t ~ctl:B.fallthrough [];
  B.row t ~ctl:B.fallthrough [];
  B.row t ~ctl:B.fallthrough [ B.d (B.load (B.imm 5) (B.imm 0) r) ];
  B.halt_row t;
  let program = B.build t in
  let config = Ximd_core.Config.prototype () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let outcome = Ximd_core.Session.run session in
  let state = Ximd_core.Session.state session in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome);
  Alcotest.check value "r = 9" (Value.of_int 9)
    (Ximd_machine.Regfile.read state.regs r)

let test_research_code_breaks_on_prototype () =
  (* The research-model TPROC schedule is latency-unaware: run under a
     pipelined datapath it completes but computes the wrong value —
     exposed pipelines demand rescheduling, which is the point of the
     compiler knowing the machine. *)
  let workload = Ximd_workloads.Tproc.make () in
  let config =
    Ximd_core.Config.make ~n_fus:4 ~result_latency:3 ()
  in
  let variant = { workload.ximd with Ximd_workloads.Workload.config } in
  match Ximd_workloads.Workload.run variant with
  | outcome, state ->
    Alcotest.(check bool) "still halts" true
      (Ximd_core.Run.completed outcome);
    (match variant.check state with
     | Error _ -> ()  (* expected: stale operands *)
     | Ok () -> Alcotest.fail "latency-unaware code should miscompute")

let suite =
  [ ( "prototype",
      [ Alcotest.test_case "exposed latency: stale read" `Quick
          test_exposed_latency_stale_read;
        Alcotest.test_case "spaced code correct" `Quick
          test_spaced_code_correct;
        Alcotest.test_case "pipeline drains after halt" `Quick
          test_drain_after_halt;
        Alcotest.test_case "latency 1 unchanged" `Quick
          test_latency_one_unchanged;
        Alcotest.test_case "store latency" `Quick test_store_latency;
        Alcotest.test_case "control path stays single-cycle" `Quick
          test_cc_stays_single_cycle;
        Alcotest.test_case "full prototype config" `Quick
          test_prototype_config_runs;
        Alcotest.test_case "research code breaks on prototype" `Quick
          test_research_code_breaks_on_prototype ] ) ]
