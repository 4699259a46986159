(* TRACE/500 two-sequencer restriction (paper §1.4): runs two-process
   programs, rejects finer partitions — XIMD generalises it. *)

open Ximd_isa
module B = Ximd_asm.Builder

let value = Alcotest.testable Value.pp Value.equal

(* Two independent countdown loops, one per bank, with data-dependent
   trip counts. *)
let two_process_program () =
  let t = B.create ~n_fus:4 in
  let r name = B.reg t name in
  let o name = B.rop (r name) in
  (* Bank 0 = {0,1}, bank 1 = {2,3}: each row's bank parcels share
     control (the builder's per-spec ctl lets banks differ). *)
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "a")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "a")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "b")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "b")) B.nop ];
  B.label t "a";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "a2")) (B.iadd (o "sa") (o "na") (r "sa"));
      B.sp ~ctl:(B.goto (B.lbl "a2")) (B.isub (o "na") (B.imm 1) (r "na"));
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop ];
  B.label t "a2";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "a3")) (B.gt (o "na") (B.imm 0));
      B.sp ~ctl:(B.goto (B.lbl "a3")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop ];
  B.label t "a3";
  B.row t
    [ B.sp ~ctl:(B.if_cc 0 (B.lbl "a") (B.lbl "adone")) B.nop;
      B.sp ~ctl:(B.if_cc 0 (B.lbl "a") (B.lbl "adone")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop ];
  B.label t "adone";
  B.row t
    [ B.sp ~ctl:B.halt B.nop;
      B.sp ~ctl:B.halt B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "bx")) B.nop ];
  (* Bank 1's process: double sb, nb times. *)
  B.label t "b";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "b2")) (B.iadd (o "sb") (o "sb") (r "sb"));
      B.sp ~ctl:(B.goto (B.lbl "b2")) (B.isub (o "nb") (B.imm 1) (r "nb")) ];
  B.label t "b2";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "b3")) (B.gt (o "nb") (B.imm 0));
      B.sp ~ctl:(B.goto (B.lbl "b3")) B.nop ];
  B.label t "b3";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "ax")) B.nop;
      B.sp ~ctl:(B.if_cc 2 (B.lbl "b") (B.lbl "bdone")) B.nop;
      B.sp ~ctl:(B.if_cc 2 (B.lbl "b") (B.lbl "bdone")) B.nop ];
  B.label t "bdone";
  B.halt_row t;
  (* Unreachable cross-bank filler targets. *)
  B.label t "ax";
  B.row t ~ctl:(B.goto B.self) [];
  B.label t "bx";
  B.row t ~ctl:(B.goto B.self) [];
  let program = B.build t in
  (program, (r "sa", r "na", r "sb", r "nb"))

let setup state (sa, na, sb, nb) =
  ignore sa;
  Ximd_machine.Regfile.set state.Ximd_core.State.regs na (Value.of_int 5);
  Ximd_machine.Regfile.set state.Ximd_core.State.regs sb (Value.of_int 1);
  Ximd_machine.Regfile.set state.Ximd_core.State.regs nb (Value.of_int 7)

let test_two_processes_run () =
  let program, regs = two_process_program () in
  Alcotest.(check bool) "bank consistent" true
    (Ximd_core.Engine.bank_consistent program);
  let config = Ximd_core.Config.make ~n_fus:4 ~max_cycles:10_000 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Banked program
  in
  let state = Ximd_core.Session.state session in
  (match Ximd_core.Session.run ~setup:(fun s -> setup s regs) session with
   | Ximd_core.Run.Halted _ -> ()
   | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "hung");
  let _, na, sb, _ = regs in
  ignore na;
  (* sb doubled 7 times: 128. *)
  Alcotest.check value "bank 1 result" (Value.of_int 128)
    (Ximd_machine.Regfile.read state.regs sb);
  Alcotest.(check int) "two streams" 2 state.stats.max_streams

let test_same_cycles_as_xsim () =
  (* XIMD subsumes the two-sequencer model: the same program takes the
     same cycles under the general simulator. *)
  let program, regs = two_process_program () in
  let run model =
    let config = Ximd_core.Config.make ~n_fus:4 ~max_cycles:10_000 () in
    let session = Ximd_core.Session.create ~config ~model program in
    match Ximd_core.Session.run ~setup:(fun s -> setup s regs) session with
    | Ximd_core.Run.Halted { cycles } -> cycles
    | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
      Alcotest.fail "hung"
  in
  Alcotest.(check int) "cycles equal"
    (run Ximd_core.Engine.Per_fu)
    (run Ximd_core.Engine.Banked)

let test_rejects_finer_partitions () =
  (* MINMAX needs three streams; the two-sequencer machine cannot host
     it (banks {0,1} {2,3}, but FUs 2 and 3 branch on different
     conditions). *)
  let program = (Ximd_workloads.Minmax.make ()).ximd.program in
  Alcotest.(check bool) "not bank consistent" false
    (Ximd_core.Engine.bank_consistent program);
  let config = Ximd_core.Config.make ~n_fus:4 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Banked program
  in
  Alcotest.(check bool) "rejected" true
    (match Ximd_core.Session.run session with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_lockstep_vliw_programs_ok () =
  (* Control-consistent (VLIW) programs are trivially bank-consistent:
     lock-step mode. *)
  let workload = Ximd_workloads.Tproc.make () in
  let program = workload.ximd.program in
  Alcotest.(check bool) "bank consistent" true
    (Ximd_core.Engine.bank_consistent program);
  let config = Ximd_core.Config.make ~n_fus:4 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Banked program
  in
  let state = Ximd_core.Session.state session in
  (match Ximd_core.Session.run ~setup:workload.ximd.setup session with
   | Ximd_core.Run.Halted _ -> ()
   | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "hung");
  match workload.ximd.check state with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_odd_fu_count_rejected () =
  let t = B.create ~n_fus:3 in
  B.halt_row t;
  let program = B.build t in
  let config = Ximd_core.Config.make ~n_fus:3 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Banked program
  in
  Alcotest.(check bool) "odd rejected" true
    (match Ximd_core.Session.run session with
     | exception Invalid_argument _ -> true
     | _ -> false)

let suite =
  [ ( "t500",
      [ Alcotest.test_case "two processes run" `Quick
          test_two_processes_run;
        Alcotest.test_case "same cycles as xsim" `Quick
          test_same_cycles_as_xsim;
        Alcotest.test_case "finer partitions rejected" `Quick
          test_rejects_finer_partitions;
        Alcotest.test_case "lock-step VLIW programs" `Quick
          test_lockstep_vliw_programs_ok;
        Alcotest.test_case "odd FU count rejected" `Quick
          test_odd_fu_count_rejected ] ) ]
