(* Unit tests for the reference interpreter (lib/ref): tiny
   hand-computed micro-programs, one per opcode class and one per
   synchronisation primitive.  These pin down the reference on its own
   terms — the differential fuzzer then carries that authority over to
   the engine. *)

module Interp = Ximd_ref.Interp
module Obs = Ximd_ref.Observation
open Ximd_isa

let parse src =
  match Ximd_asm.Source.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Ximd_asm.Source.pp_error e

let run ?model ?config ?setup src =
  let program = parse src in
  let config =
    match config with
    | Some c -> c
    | None ->
      Ximd_core.Config.make ~n_fus:(Ximd_core.Program.n_fus program) ()
  in
  Interp.run ?model ~config ?setup program

let check_reg obs name n expected =
  Alcotest.(check int32)
    (Printf.sprintf "%s: r%d" name n)
    (Int32.of_int expected)
    (Value.to_int32 obs.Obs.registers.(n))

let check_halted obs name cycles =
  match obs.Obs.outcome with
  | Ximd_core.Run.Halted { cycles = c } ->
    Alcotest.(check int) (name ^ ": halt cycle") cycles c
  | o -> Alcotest.failf "%s: expected halt, got %s" name (Obs.outcome_string o)

let hazard_count obs = List.length obs.Obs.hazards

(* --- Integer ALU -------------------------------------------------------- *)

let test_int_arith () =
  let obs =
    run
      {|
.fus 1
  [0] iadd #40, #2, r1  | -> @1
  [0] isub r1, #50, r2  | -> @2
  [0] imult r2, #-3, r3 | -> @3
  [0] idiv #17, #5, r4  | -> @4
  [0] imod #17, #5, r5  | halt
|}
  in
  check_halted obs "arith" 5;
  check_reg obs "iadd" 1 42;
  check_reg obs "isub" 2 (-8);
  check_reg obs "imult" 3 24;
  check_reg obs "idiv" 4 3;
  check_reg obs "imod" 5 2;
  Alcotest.(check int) "no hazards" 0 (hazard_count obs)

let test_int_logic_shift () =
  let obs =
    run
      {|
.fus 1
  [0] and #12, #10, r1 | -> @1
  [0] or #12, #10, r2  | -> @2
  [0] xor #12, #10, r3 | -> @3
  [0] shl #1, #35, r4  | -> @4
  [0] shr #-1, #28, r5 | -> @5
  [0] sar #-16, #2, r6 | halt
|}
  in
  check_reg obs "and" 1 8;
  check_reg obs "or" 2 14;
  check_reg obs "xor" 3 6;
  (* shift counts are masked to 5 bits: 35 land 31 = 3 *)
  check_reg obs "shl masks count" 4 8;
  (* logical shift of all-ones by 28 leaves the low 4 bits *)
  check_reg obs "shr logical" 5 15;
  check_reg obs "sar arithmetic" 6 (-4)

let test_div_by_zero_faults () =
  let obs =
    run {|
.fus 1
  [0] idiv #7, #0, r1 | -> @1
  [0] imod #7, #0, r2 | halt
|}
  in
  (* Faulting ops write zero and record a hazard; the run still halts. *)
  check_halted obs "div0" 2;
  check_reg obs "idiv/0 writes zero" 1 0;
  check_reg obs "imod/0 writes zero" 2 0;
  Alcotest.(check int) "two fault hazards" 2 (hazard_count obs)

let test_unops () =
  let obs =
    run
      {|
.fus 1
  [0] mov #77, r1  | -> @1
  [0] ineg r1, r2  | -> @2
  [0] not #0, r3   | halt
|}
  in
  check_reg obs "mov" 1 77;
  check_reg obs "ineg" 2 (-77);
  check_reg obs "not 0" 3 (-1)

(* --- Float datapath ----------------------------------------------------- *)

let test_float_ops () =
  let obs =
    run
      {|
.fus 1
  [0] itof #7, r1      | -> @1
  [0] itof #2, r2      | -> @2
  [0] fadd r1, r2, r3  | -> @3
  [0] fmult r1, r2, r4 | -> @4
  [0] fdiv r1, r2, r5  | -> @5
  [0] fneg r3, r6      | -> @6
  [0] ftoi r4, r7      | halt
|}
  in
  let f n = Value.to_float obs.Obs.registers.(n) in
  Alcotest.(check (float 0.0)) "7.0 + 2.0" 9.0 (f 3);
  Alcotest.(check (float 0.0)) "7.0 * 2.0" 14.0 (f 4);
  Alcotest.(check (float 0.001)) "7.0 / 2.0" 3.5 (f 5);
  Alcotest.(check (float 0.0)) "-9.0" (-9.0) (f 6);
  check_reg obs "ftoi" 7 14

(* --- Compare and branch ------------------------------------------------- *)

let test_cmp_branch () =
  (* lt sets FU0's CC; the branch next row must take the true path. *)
  let obs =
    run
      {|
.fus 1
go:
  [0] lt #3, #5 | -> test
test:
  [0] nop | if cc0 hit : miss
miss:
  [0] mov #-1, r1 | halt
hit:
  [0] mov #99, r1 | halt
|}
  in
  check_reg obs "lt taken" 1 99;
  let obs2 =
    run
      {|
.fus 1
go:
  [0] ge #3, #5 | -> test
test:
  [0] nop | if cc0 hit : miss
miss:
  [0] mov #-1, r1 | halt
hit:
  [0] mov #99, r1 | halt
|}
  in
  check_reg obs2 "ge not taken" 1 (-1)

let test_undefined_cc_is_false () =
  (* Branching on a CC that was never set reads false (and records a
     hazard) — the program must fall to the false path. *)
  let obs =
    run
      {|
.fus 1
go:
  [0] nop | if cc0 hit : miss
miss:
  [0] mov #5, r1 | halt
hit:
  [0] mov #6, r1 | halt
|}
  in
  check_reg obs "undefined cc false path" 1 5;
  Alcotest.(check int) "undefined-cc hazard" 1 (hazard_count obs)

(* --- Memory ------------------------------------------------------------- *)

let test_load_store () =
  let obs =
    run
      {|
.fus 1
  [0] store #123, #40   | -> @1
  [0] load #40, #0, r1  | -> @2
  [0] load #30, #10, r2 | halt
|}
  in
  check_reg obs "store/load roundtrip" 1 123;
  (* load address is base + offset: 30 + 10 = 40 *)
  check_reg obs "load base+offset" 2 123;
  Alcotest.(check (list (pair int int32)))
    "memory footprint" [ (40, 123l) ]
    (List.map (fun (a, v) -> (a, Value.to_int32 v)) obs.Obs.memory)

let test_mem_out_of_bounds () =
  let config = Ximd_core.Config.make ~n_fus:1 ~mem_words:64 () in
  let obs =
    run ~config
      {|
.fus 1
  [0] store #9, #64    | -> @1
  [0] load #-1, #0, r1 | halt
|}
  in
  check_reg obs "oob load reads zero" 1 0;
  Alcotest.(check int) "two oob hazards" 2 (hazard_count obs);
  Alcotest.(check (list (pair int int32)))
    "oob store dropped" []
    (List.map (fun (a, v) -> (a, Value.to_int32 v)) obs.Obs.memory)

(* --- I/O ports ---------------------------------------------------------- *)

let test_io_ports () =
  let obs =
    run
      {|
.fus 1
  [0] out #11, #2 | -> @1
  [0] in #5, r1   | -> @2
  [0] out #22, #2 | halt
|}
  in
  (* Unscripted input reads zero. *)
  check_reg obs "in unscripted" 1 0;
  Alcotest.(check (list (pair int (list (pair int int32)))))
    "port write log"
    [ (2, [ (0, 11l); (2, 22l) ]) ]
    (List.map
       (fun (p, ws) ->
         (p, List.map (fun (c, v) -> (c, Value.to_int32 v)) ws))
       obs.Obs.io_out)

(* --- Synchronisation primitives ----------------------------------------- *)

let test_ss_handshake () =
  (* FU0 computes and halts (SS reads DONE); FU1 spins on ss0, then
     consumes FU0's result through memory. *)
  let obs =
    run
      {|
.fus 2
init:
  [0] mov #31, r1      | -> p0
  [1] nop              | -> wait
p0:
  [0] store r1, #8     | halt
wait:
  [1] nop              | if ss0 go : wait
go:
  [1] load #8, #0, r2  | halt
|}
  in
  check_reg obs "consumer sees produced value" 2 31;
  (* FU0 halts at cycle 1 end; FU1's cycle-2 cond eval sees DONE, so it
     loads at cycle 3 and halts: 4 cycles total. *)
  check_halted obs "handshake" 4

let test_busy_done_sync_field () =
  (* A branch parcel's sync field drives the FU's SS: FU0 loops once
     advertising BUSY, then DONE; FU1's all() barrier opens only after
     the DONE. *)
  let obs =
    run
      {|
.fus 2
a:
  [0] nop | -> b | busy
  [1] nop | if all(0) fin : w0 | done
b:
  [0] nop | -> fin | done
w0:
  [1] nop | if all(0) fin : w0 | done
fin:
  [0] nop | halt
  [1] mov #1, r3 | halt
|}
  in
  check_reg obs "barrier opened" 3 1;
  check_halted obs "busy->done" 4

let test_all_ss_barrier () =
  (* Three FUs with leads of 0/1/2 extra rows meet on a full-mask
     barrier; everyone leaves it on the same cycle. *)
  let obs =
    run
      {|
.fus 3
r0:
  [0] nop | -> bar | done
  [1] nop | -> r1 | busy
  [2] nop | -> r1 | busy
r1:
  [0] nop | halt
  [1] nop | -> bar | done
  [2] nop | -> r2 | busy
r2:
  [0] nop | halt
  [1] nop | halt
  [2] nop | -> bar | done
bar:
  [0] nop | if all out : bar | done
  [1] nop | if all out : bar | done
  [2] nop | if all out : bar | done
out:
  [0] mov #1, r1 | halt
  [1] mov #2, r2 | halt
  [2] mov #3, r3 | halt
|}
  in
  check_reg obs "fu0 past barrier" 1 1;
  check_reg obs "fu1 past barrier" 2 2;
  check_reg obs "fu2 past barrier" 3 3;
  (* FU2 reaches bar at cycle 3 with SS DONE everywhere, all leave at
     cycle 4, out executes cycle 5... but FU0/FU1 idle in bar from
     cycles 1/2.  Total: out row at cycle 4, halt seen at cycle 5. *)
  check_halted obs "barrier rendezvous" 5

let test_any_ss () =
  (* any(1,2) opens as soon as ONE of FUs 1,2 is DONE. *)
  let obs =
    run
      {|
.fus 3
r0:
  [0] nop | if any(1,2) fin : w | busy
  [1] nop | -> r1 | done
  [2] nop | -> r1 | busy
w:
  [0] nop | if any(1,2) fin : w | busy
r1:
  [1] nop | halt
  [2] nop | halt
fin:
  [0] mov #7, r1 | halt
|}
  in
  check_reg obs "any opened on first done" 1 7

let test_deadlock_exhausts_fuel () =
  let config = Ximd_core.Config.make ~n_fus:2 ~max_cycles:25 () in
  let obs =
    run ~config
      {|
.fus 2
a:
  [0] nop | if ss1 out : a | busy
  [1] nop | if ss0 out : a | busy
out:
  [0] nop | halt
  [1] nop | halt
|}
  in
  match obs.Obs.outcome with
  | Ximd_core.Run.Fuel_exhausted { cycles } ->
    Alcotest.(check int) "spun to the fuel limit" 25 cycles
  | o -> Alcotest.failf "expected fuel exhaustion, got %s" (Obs.outcome_string o)

(* --- Sequencing models --------------------------------------------------- *)

let test_global_model () =
  (* Under the global sequencer the whole machine is one stream: a
     control-consistent program runs identically to Per_fu. *)
  let src = {|
.fus 2
  [0] iadd #1, #2, r1 | -> @1
  [1] iadd #3, #4, r2 | -> @1
  [0] iadd r1, r2, r3 | halt
  [1] nop             | halt
|}
  in
  let per_fu = run ~model:Interp.Per_fu src in
  let global = run ~model:Interp.Global src in
  check_reg global "global sum" 3 10;
  Alcotest.(check bool) "global = per-fu here" true (Obs.equal per_fu global)

let test_banked_model () =
  (* Two banks of two FUs each, running different-length streams. *)
  let obs =
    run ~model:Interp.Banked
      {|
.fus 4
r0:
  [0] mov #1, r1 | -> r1
  [1] mov #2, r2 | -> r1
  [2] mov #3, r3 | halt
  [3] mov #4, r4 | halt
r1:
  [0] iadd r1, r2, r5 | halt
  [1] nop             | halt
|}
  in
  check_reg obs "bank0 second row" 5 3;
  check_reg obs "bank1 halted early" 4 4

(* --- Result latency ------------------------------------------------------ *)

let test_latency_stale_read () =
  (* With latency 3, a dependent read one row later still sees the old
     register value (the exposed pipeline of §2.2). *)
  let config = Ximd_core.Config.make ~n_fus:1 ~result_latency:3 () in
  let obs =
    run ~config
      {|
.fus 1
  [0] mov #5, r1      | -> @1
  [0] iadd r1, #0, r2 | -> @2
  [0] nop             | -> @3
  [0] iadd r1, #0, r3 | halt
|}
  in
  (* mov executes cycle 0, commits at cycle 2; the cycle-1 read is
     stale (0), the cycle-3 read is fresh (5). *)
  check_reg obs "stale read" 2 0;
  check_reg obs "fresh read" 3 5

let test_multi_write_tie_break () =
  (* Two FUs write the same register in one cycle: highest FU wins. *)
  let obs =
    run {|
.fus 2
  [0] mov #10, r1 | halt
  [1] mov #20, r1 | halt
|}
  in
  check_reg obs "highest FU wins" 1 20;
  Alcotest.(check int) "multi-write hazard" 1 (hazard_count obs)

let test_setup_preloads_state () =
  let obs =
    run
      ~setup:(fun m ->
        Interp.set_reg m 1 (Value.of_int 30);
        Interp.set_mem m 4 (Value.of_int 12))
      {|
.fus 1
  [0] load #4, #0, r2  | -> @1
  [0] iadd r1, r2, r3  | halt
|}
  in
  check_reg obs "setup reg + mem" 3 42

(* The run counters, one per sequencer: on a uniform row every FU under
   per-FU sequencers (and each one-FU bank) is a sequencer of its own,
   so each counts its conditional branches and reports its undefined
   CC, while the global sequencer does both once.  Spin slots are one
   per issuing FU in every model. *)
let test_counts_per_sequencer () =
  let src = {|
.fus 2
spin:
  [0] eq #1, #1 | if cc0 fin : spin
  [1] nop       | if cc0 fin : spin
fin:
  [0] nop | halt
  [1] nop | halt
|}
  in
  List.iter
    (fun (model, name, cond_branches, hazards) ->
      let obs = run ~model src in
      let c = obs.Obs.counts in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      check_halted obs name 3;
      check "cycles" 3 c.cycles;
      check "data ops" 2 c.data_ops;
      check "nops" 4 c.nops;
      check "halted slots" 0 c.halted_slots;
      check "spin slots" 2 c.spin_slots;
      check "conditional branches" cond_branches c.cond_branches;
      check "max streams" 1 c.max_streams;
      check "undefined-CC hazards" hazards (hazard_count obs))
    [ (Interp.Per_fu, "xsim", 4, 2);
      (Interp.Global, "vsim", 2, 1);
      (Interp.Banked, "t500", 4, 2) ]

let suite =
  [ ( "reference interpreter",
      [ Alcotest.test_case "integer arithmetic" `Quick test_int_arith;
        Alcotest.test_case "logic and shifts" `Quick test_int_logic_shift;
        Alcotest.test_case "division by zero" `Quick test_div_by_zero_faults;
        Alcotest.test_case "unary ops" `Quick test_unops;
        Alcotest.test_case "float datapath" `Quick test_float_ops;
        Alcotest.test_case "compare and branch" `Quick test_cmp_branch;
        Alcotest.test_case "undefined CC reads false" `Quick
          test_undefined_cc_is_false;
        Alcotest.test_case "load/store" `Quick test_load_store;
        Alcotest.test_case "memory bounds" `Quick test_mem_out_of_bounds;
        Alcotest.test_case "I/O ports" `Quick test_io_ports;
        Alcotest.test_case "SS handshake" `Quick test_ss_handshake;
        Alcotest.test_case "busy/done sync field" `Quick
          test_busy_done_sync_field;
        Alcotest.test_case "all_ss barrier" `Quick test_all_ss_barrier;
        Alcotest.test_case "any_ss" `Quick test_any_ss;
        Alcotest.test_case "deadlock exhausts fuel" `Quick
          test_deadlock_exhausts_fuel;
        Alcotest.test_case "global model" `Quick test_global_model;
        Alcotest.test_case "banked model" `Quick test_banked_model;
        Alcotest.test_case "latency stale read" `Quick test_latency_stale_read;
        Alcotest.test_case "multi-write tie break" `Quick
          test_multi_write_tie_break;
        Alcotest.test_case "setup preloads state" `Quick
          test_setup_preloads_state;
        Alcotest.test_case "run counters, one per sequencer" `Quick
          test_counts_per_sequencer ] ) ]
