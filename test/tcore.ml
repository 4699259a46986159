(* Core semantics tests: partitions, program validation and images, and
   cycle-level micro-semantics of both simulators. *)

open Ximd_isa
module B = Ximd_asm.Builder

let value = Alcotest.testable Value.pp Value.equal

(* --- Partition --------------------------------------------------------- *)

let test_partition_notation () =
  let p = Ximd_core.Partition.of_ssets [ [ 3; 6; 7 ]; [ 0; 1 ]; [ 2 ]; [ 4; 5 ] ] in
  Alcotest.(check string) "paper notation" "{0,1}{2}{3,6,7}{4,5}"
    (Ximd_core.Partition.to_string p);
  Alcotest.(check int) "count" 4 (Ximd_core.Partition.count p);
  Alcotest.(check int) "n_fus" 8 (Ximd_core.Partition.n_fus p);
  Alcotest.(check bool) "same sset" true (Ximd_core.Partition.same_sset p 3 7);
  Alcotest.(check bool) "different" false (Ximd_core.Partition.same_sset p 0 2)

let test_partition_of_string () =
  List.iter
    (fun s ->
      match Ximd_core.Partition.of_string s with
      | Ok p -> Alcotest.(check string) s s (Ximd_core.Partition.to_string p)
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    [ "{0,1,2,3}"; "{0,1}{2}{3,6,7}{4,5}"; "{0}" ];
  List.iter
    (fun s ->
      match Ximd_core.Partition.of_string s with
      | Ok _ -> Alcotest.failf "%s should not parse" s
      | Error _ -> ())
    [ "{0,1}{1,2}"; "{1,2}"; "{0}{2}"; "{"; "{x}" ]

let test_partition_of_signatures () =
  let goto5 = Control.goto 5 in
  let cc0 = Control.br (Cond.Cc 0) 1 2 in
  let cc1 = Control.br (Cond.Cc 1) 1 2 in
  let p = Ximd_core.Partition.of_signatures [| goto5; goto5; cc0; cc1 |] in
  Alcotest.(check string) "grouped" "{0,1}{2}{3}"
    (Ximd_core.Partition.to_string p);
  (* Identical conditional signatures merge even across "distance". *)
  let p = Ximd_core.Partition.of_signatures [| cc0; goto5; cc0; goto5 |] in
  Alcotest.(check string) "interleaved" "{0,2}{1,3}"
    (Ximd_core.Partition.to_string p)

let test_partition_validation () =
  Alcotest.(check bool) "overlap rejected" true
    (match Ximd_core.Partition.of_ssets [ [ 0; 1 ]; [ 1 ] ] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "gap rejected" true
    (match Ximd_core.Partition.of_ssets [ [ 0 ]; [ 2 ] ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Program ------------------------------------------------------------ *)

let tiny_program ?(n_fus = 2) () =
  let t = B.create ~n_fus in
  B.row t [ B.d (B.iadd (B.imm 1) (B.imm 2) (B.reg t "x")) ];
  B.halt_row t;
  B.build t

let test_program_validate () =
  let config = Ximd_core.Config.make ~n_fus:2 () in
  (match Ximd_core.Program.validate (tiny_program ()) config with
   | Ok () -> ()
   | Error errors -> Alcotest.failf "unexpected: %s" (List.hd errors));
  (* FU-count mismatch. *)
  (match Ximd_core.Program.validate (tiny_program ~n_fus:4 ()) config with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "FU mismatch accepted");
  (* Out-of-range condition FU. *)
  let bad =
    let t = B.create ~n_fus:2 in
    B.row t ~ctl:(B.if_cc 7 (B.abs 0) (B.abs 0)) [];
    B.build t
  in
  match Ximd_core.Program.validate bad config with
  | Error (msg :: _) ->
    Alcotest.(check bool) "mentions FU" true (String.length msg > 0)
  | Error [] | Ok () -> Alcotest.fail "cc7 on a 2-FU machine accepted"

let test_program_fallthrough_needs_prototype () =
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:B.fallthrough [];
  B.halt_row t;
  let p = B.build t in
  (match Ximd_core.Program.validate p (Ximd_core.Config.make ~n_fus:1 ()) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "fall-through accepted by research sequencer");
  match
    Ximd_core.Program.validate p
      (Ximd_core.Config.make ~n_fus:1 ~sequencer:Ximd_core.Config.Prototype ())
  with
  | Ok () -> ()
  | Error errors -> Alcotest.failf "prototype rejected: %s" (List.hd errors)

let test_program_image_roundtrip () =
  List.iter
    (fun program ->
      let image = Ximd_core.Program.encode program in
      match Ximd_core.Program.decode image with
      | Ok p ->
        Alcotest.(check bool) "code equal" true
          (Ximd_core.Program.equal_code program p)
      | Error msg -> Alcotest.fail msg)
    [ tiny_program ();
      (Ximd_workloads.Minmax.make ()).ximd.program;
      (Ximd_workloads.Bitcount.make ()).ximd.program;
      (Ximd_workloads.Iosync.make ()).ximd.program ]

let test_program_image_rejects_garbage () =
  List.iter
    (fun bytes ->
      match Ximd_core.Program.decode bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")
    [ Bytes.create 3;
      Bytes.of_string "XIMDgarbagegarbage";
      Bytes.make 40 '\xff' ]

let test_control_consistency () =
  Alcotest.(check bool) "vliw-style program" true
    (Ximd_core.Program.control_consistent (tiny_program ()));
  Alcotest.(check bool) "minmax ximd is not" false
    (Ximd_core.Program.control_consistent
       (Ximd_workloads.Minmax.make ()).ximd.program)

(* --- Xsim micro-semantics ---------------------------------------------- *)

let run_rows ?(n_fus = 2) ?(config = None) build =
  let t = B.create ~n_fus in
  let regs = build t in
  let program = B.build t in
  let config =
    match config with
    | Some c -> c
    | None -> Ximd_core.Config.make ~n_fus ~max_cycles:10_000 ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let outcome = Ximd_core.Session.run session in
  (outcome, Ximd_core.Session.state session, regs)

let test_cc_visible_next_cycle () =
  (* A compare and a branch on its result in the SAME row must use the
     OLD condition code; the new value is visible one cycle later. *)
  let _, state, (r1, r2) =
    run_rows ~n_fus:1 (fun t ->
      let r1 = B.reg t "r1" and r2 = B.reg t "r2" in
      (* row 0: set cc := (0 == 0) = true *)
      B.row t [ B.d (B.eq (B.imm 0) (B.imm 0)) ];
      (* row 1: compare (1 == 0) = false, but branch sees true -> takes
         t1 = row 2; also r1 := 11 *)
      B.row t
        [ B.sp
            ~ctl:(B.if_cc 0 (B.abs 2) (B.abs 3))
            (B.eq (B.imm 1) (B.imm 0)) ];
      (* row 2: branch on cc again — now false -> t2 = row 4; r? *)
      B.row t ~ctl:(B.if_cc 0 (B.abs 3) (B.abs 4))
        [ B.d (B.mov (B.imm 11) r1) ];
      (* row 3: should be skipped *)
      B.row t ~ctl:(B.goto (B.abs 4)) [ B.d (B.mov (B.imm 99) r2) ];
      (* row 4: *)
      B.halt_row t;
      (r1, r2))
  in
  Alcotest.check value "row 2 executed" (Value.of_int 11)
    (Ximd_machine.Regfile.read state.regs r1);
  Alcotest.check value "row 3 skipped" Value.zero
    (Ximd_machine.Regfile.read state.regs r2)

let test_reads_see_start_of_cycle () =
  (* Two FUs swap registers in one cycle: both read old values. *)
  let _, state, (a, b) =
    run_rows ~n_fus:2 (fun t ->
      let a = B.reg t "a" and b = B.reg t "b" in
      B.row t [ B.d (B.mov (B.imm 1) a); B.d (B.mov (B.imm 2) b) ];
      B.row t [ B.d (B.mov (B.rop b) a); B.d (B.mov (B.rop a) b) ];
      B.halt_row t;
      (a, b))
  in
  Alcotest.check value "a := old b" (Value.of_int 2)
    (Ximd_machine.Regfile.read state.regs a);
  Alcotest.check value "b := old a" (Value.of_int 1)
    (Ximd_machine.Regfile.read state.regs b)

let test_halted_fu_reads_done () =
  (* FU0 halts immediately; FU1 waits on ALL sync — it must complete
     because a finished stream reads DONE. *)
  let outcome, _, () =
    run_rows ~n_fus:2 (fun t ->
      B.row t
        [ B.sp ~ctl:B.halt B.nop;
          B.sp ~ctl:(B.goto (B.lbl "wait")) B.nop ];
      B.label t "wait";
      B.row t ~sync:Sync.Done
        ~ctl:(B.if_all_ss t (B.lbl "fin") (B.lbl "wait")) [];
      B.label t "fin";
      B.halt_row t;
      ())
  in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome)

let test_fell_off_end () =
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:(B.goto (B.abs 1)) [];
  B.row t ~ctl:(B.goto (B.abs 1)) [];  (* spin; manually corrupt below *)
  let program = B.build t in
  (* Rebuild with an out-of-range branch by using abs within range but
     validating against a SHORTER config is rejected at create; instead
     drive the hazard by branching to the last row + fallthrough?  The
     clean way: a 2-row program whose row 1 branches to row 0 is fine;
     fell-off-end needs Prototype fall-through on the last row. *)
  ignore program;
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:B.fallthrough [];
  B.row t ~ctl:B.fallthrough [];  (* falls past the end *)
  let program = B.build t in
  let config =
    Ximd_core.Config.make ~n_fus:1 ~sequencer:Ximd_core.Config.Prototype
      ~hazard_policy:Ximd_machine.Hazard.Record ~max_cycles:100 ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let outcome = Ximd_core.Session.run session in
  let state = Ximd_core.Session.state session in
  Alcotest.(check bool) "halted via hazard" true
    (Ximd_core.Run.completed outcome);
  match Ximd_core.State.hazards state with
  | [ { hazard = Ximd_machine.Hazard.Fell_off_end { fu = 0; addr = 2 }; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected one Fell_off_end at address 2"

let test_undefined_cc_hazard () =
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:(B.if_cc 0 (B.abs 1) (B.abs 1)) [];
  B.halt_row t;
  let program = B.build t in
  let config =
    Ximd_core.Config.make ~n_fus:1
      ~hazard_policy:Ximd_machine.Hazard.Record ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  ignore (Ximd_core.Session.run session);
  let state = Ximd_core.Session.state session in
  match Ximd_core.State.hazards state with
  | [ { hazard = Ximd_machine.Hazard.Undefined_cc { cc = 0; fu = 0 }; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected an Undefined_cc hazard"

let test_multiwrite_detected_in_simulation () =
  let t = B.create ~n_fus:2 in
  let r = B.reg t "clash" in
  B.row t [ B.d (B.mov (B.imm 1) r); B.d (B.mov (B.imm 2) r) ];
  B.halt_row t;
  let program = B.build t in
  let config =
    Ximd_core.Config.make ~n_fus:2
      ~hazard_policy:Ximd_machine.Hazard.Record ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  ignore (Ximd_core.Session.run session);
  let state = Ximd_core.Session.state session in
  Alcotest.(check int) "one hazard" 1
    (List.length (Ximd_core.State.hazards state))

let test_spin_slots_counted () =
  (* A 3-cycle barrier wait counts spin slots. *)
  let _, state, () =
    run_rows ~n_fus:2 (fun t ->
      (* FU1 busy for a few cycles before signalling DONE. *)
      B.row t
        [ B.sp ~ctl:(B.goto (B.lbl "wait")) B.nop;
          B.sp ~ctl:(B.goto (B.lbl "work")) B.nop ];
      B.label t "work";
      B.row t [ B.d B.nop; B.d B.nop ];
      B.row t [ B.d B.nop; B.d B.nop ];
      B.row t ~ctl:(B.goto (B.lbl "wait")) [];
      B.label t "wait";
      B.row t ~sync:Sync.Done
        ~ctl:(B.if_all_ss t (B.lbl "fin") (B.lbl "wait")) [];
      B.label t "fin";
      B.halt_row t;
      ())
  in
  Alcotest.(check bool) "spins recorded" true (state.stats.spin_slots > 0)

let test_prototype_sequencer_runs () =
  let t = B.create ~n_fus:1 in
  let r = B.reg t "acc" in
  B.row t ~ctl:B.fallthrough [ B.d (B.mov (B.imm 5) r) ];
  B.row t ~ctl:B.fallthrough [ B.d (B.iadd (B.rop r) (B.imm 1) r) ];
  B.halt_row t;
  let program = B.build t in
  let config =
    Ximd_core.Config.make ~n_fus:1 ~sequencer:Ximd_core.Config.Prototype ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let outcome = Ximd_core.Session.run session in
  let state = Ximd_core.Session.state session in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome);
  Alcotest.check value "sequenced" (Value.of_int 6)
    (Ximd_machine.Regfile.read state.regs r)

let test_max_streams_tracked () =
  (* Four FUs all fork to distinct addresses. *)
  let t = B.create ~n_fus:4 in
  B.row t
    (List.init 4 (fun i ->
       B.sp ~ctl:(B.goto (B.lbl (Printf.sprintf "t%d" i))) B.nop));
  List.iter
    (fun i ->
      B.label t (Printf.sprintf "t%d" i);
      B.row t ~ctl:B.halt [])
    [ 0; 1; 2; 3 ];
  let program = B.build t in
  let config = Ximd_core.Config.make ~n_fus:4 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  ignore (Ximd_core.Session.run session);
  let state = Ximd_core.Session.state session in
  Alcotest.(check int) "four streams" 4 state.stats.max_streams

(* --- Vsim ---------------------------------------------------------------- *)

let test_vsim_requires_consistency () =
  let program = (Ximd_workloads.Minmax.make ()).ximd.program in
  let config = Ximd_core.Config.make ~n_fus:4 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Global program
  in
  Alcotest.(check bool) "rejected" true
    (match Ximd_core.Session.run session with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_vsim_single_stream () =
  let workload = Ximd_workloads.Tproc.make () in
  (match workload.vliw with
   | Some variant ->
     let tracer = Ximd_core.Tracer.create () in
     (match Ximd_workloads.Workload.run_checked ~tracer variant with
      | Ok _ ->
        List.iter
          (fun (row : Ximd_core.Tracer.row) ->
            Alcotest.(check int) "one sset" 1
              (Ximd_core.Partition.count row.partition);
            (* All PCs equal. *)
            let pcs = Array.to_list row.pcs in
            match pcs with
            | Some first :: rest ->
              List.iter
                (fun pc -> Alcotest.(check (option int)) "lockstep"
                    (Some first) pc)
                rest
            | _ -> Alcotest.fail "unexpected trace shape")
          (Ximd_core.Tracer.rows tracer)
      | Error msg -> Alcotest.fail msg)
   | None -> Alcotest.fail "tproc has a VLIW variant")

let test_xsim_equals_vsim_on_vliw_code () =
  (* A control-consistent program must produce identical cycle counts
     and results under both simulators (the XIMD/VLIW equivalence of
     paper §3.1). *)
  List.iter
    (fun (workload : Ximd_workloads.Workload.t) ->
      match workload.vliw with
      | Some vliw_variant
        when Ximd_core.Program.control_consistent vliw_variant.program ->
        let x_variant =
          { vliw_variant with Ximd_workloads.Workload.sim = Ximd_workloads.Workload.Ximd }
        in
        (match
           ( Ximd_workloads.Workload.run_checked x_variant,
             Ximd_workloads.Workload.run_checked vliw_variant )
         with
         | Ok (xo, _), Ok (vo, _) ->
           Alcotest.(check int)
             (workload.name ^ " same cycles")
             (Ximd_core.Run.cycles vo) (Ximd_core.Run.cycles xo)
         | Error msg, _ | _, Error msg -> Alcotest.fail msg)
      | Some _ | None -> ())
    (Ximd_workloads.Suite.all ())

let suite =
  [ ( "partition",
      [ Alcotest.test_case "notation" `Quick test_partition_notation;
        Alcotest.test_case "of_string" `Quick test_partition_of_string;
        Alcotest.test_case "of_signatures" `Quick
          test_partition_of_signatures;
        Alcotest.test_case "validation" `Quick test_partition_validation ] );
    ( "program",
      [ Alcotest.test_case "validate" `Quick test_program_validate;
        Alcotest.test_case "fall-through needs prototype" `Quick
          test_program_fallthrough_needs_prototype;
        Alcotest.test_case "image roundtrip" `Quick
          test_program_image_roundtrip;
        Alcotest.test_case "image rejects garbage" `Quick
          test_program_image_rejects_garbage;
        Alcotest.test_case "control consistency" `Quick
          test_control_consistency ] );
    ( "xsim",
      [ Alcotest.test_case "cc visible next cycle" `Quick
          test_cc_visible_next_cycle;
        Alcotest.test_case "reads see start of cycle" `Quick
          test_reads_see_start_of_cycle;
        Alcotest.test_case "halted FU reads DONE" `Quick
          test_halted_fu_reads_done;
        Alcotest.test_case "fell off end" `Quick test_fell_off_end;
        Alcotest.test_case "undefined cc hazard" `Quick
          test_undefined_cc_hazard;
        Alcotest.test_case "multi-write detected" `Quick
          test_multiwrite_detected_in_simulation;
        Alcotest.test_case "spin slots counted" `Quick
          test_spin_slots_counted;
        Alcotest.test_case "prototype sequencer" `Quick
          test_prototype_sequencer_runs;
        Alcotest.test_case "max streams tracked" `Quick
          test_max_streams_tracked ] );
    ( "vsim",
      [ Alcotest.test_case "requires control consistency" `Quick
          test_vsim_requires_consistency;
        Alcotest.test_case "single stream lockstep" `Quick
          test_vsim_single_stream;
        Alcotest.test_case "xsim = vsim on VLIW code" `Quick
          test_xsim_equals_vsim_on_vliw_code ] ) ]
