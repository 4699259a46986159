(* Unit tests for the machine substrates: register file, memory, ALU,
   I/O ports, hazard log. *)

open Ximd_isa
open Cycle_helpers

let value = Alcotest.testable Value.pp Value.equal

let fresh_log () = M.Hazard.create_log M.Hazard.Record

(* --- Register and memory writes ----------------------------------------
   Results wait in the engine's write-back queue until their commit, so
   these cases issue one row at a time through [Cycle_helpers]. *)

let test_regfile_staging () =
  let state = state_of ".fus 1\n  [0] mov #42, r7 | halt\n" in
  issue state 0;
  (* Queued writes invisible until commit — start-of-cycle reads. *)
  check_reg "before commit" state 7 0;
  commit state;
  check_reg "after commit" state 7 42;
  check_hazards "no hazards" [] state

let test_regfile_multiwrite_hazard () =
  let state =
    state_of
      ".fus 6\n  [2] mov #1, r9 | halt\n  [5] mov #2, r9 | halt\n"
  in
  state.cycle <- 3;
  issue state 0;
  commit state;
  check_hazards "one hazard, every writer"
    [ (3, "multiple writes to r9 by FUs 2,5") ]
    state;
  (* Documented recovery: highest FU wins. *)
  check_reg "highest FU wins" state 9 2

let test_regfile_raise_policy () =
  let state =
    state_of ~policy:M.Hazard.Raise
      ".fus 2\n  [0] mov #1, r1 | halt\n  [1] mov #1, r1 | halt\n"
  in
  issue state 0;
  Alcotest.(check bool) "raises" true
    (match Core.Exec.commit_cycle state with
     | exception M.Hazard.Error _ -> true
     | () -> false)

let test_regfile_same_fu_double_write_is_hazard () =
  (* Even a single FU writing one register twice in a cycle is flagged —
     the parcel shapes make it impossible on the real machine, so only a
     duplicating write port ({!M.Fault.Dup_write}) produces it. *)
  let state =
    state_of
      ~faults:
        (M.Fault.create [ { at = 0; kind = M.Fault.Dup_write; target = 3 } ])
      ".fus 4\n  [3] mov #2, r4 | halt\n"
  in
  issue state 0;
  commit state;
  check_hazards "flagged" [ (0, "multiple writes to r4 by FUs 3,3") ] state

let test_memory_staging () =
  let state =
    state_of ~mem_words:64
      ".fus 2\n\
      \  [0] store #5, #10    | -> @1\n\
      \  [1] load #10, #0, r1 | -> @1\n\
      \  [1] load #10, #0, r2 | halt\n"
  in
  issue state 0;
  check_mem "before commit" state 10 0;
  commit state;
  check_reg "a load beside the store reads start-of-cycle memory" state 1 0;
  check_mem "after commit" state 10 5;
  issue state 1;
  commit state;
  check_reg "a later load reads the store" state 2 5;
  check_hazards "no hazards" [] state

let test_memory_bounds () =
  let state =
    state_of ~mem_words:16
      ".fus 2\n  [0] load #99, #0, r1 | halt\n  [1] store #1, #-1 | halt\n"
  in
  issue state 0;
  commit state;
  check_reg "oob load reads zero" state 1 0;
  check_hazards "an oob load and an oob store, both reported"
    [ (0, "FU0 accessed out-of-bounds M[99]");
      (0, "FU1 accessed out-of-bounds M[-1]") ]
    state;
  Alcotest.(check int) "the oob store is dropped: only the load commits" 1
    state.scratch.record.commit_results;
  Alcotest.check_raises "set raises"
    (Invalid_argument "Memory.set: address 16 out of bounds") (fun () ->
      M.Memory.set state.mem 16 Value.one)

let test_memory_multiwrite () =
  let state =
    state_of ~mem_words:16
      ".fus 7\n  [0] store #10, #3 | halt\n  [6] store #20, #3 | halt\n"
  in
  state.cycle <- 7;
  issue state 0;
  commit state;
  check_hazards "hazard" [ (7, "multiple writes to M[3] by FUs 0,6") ] state;
  check_mem "highest FU wins" state 3 20

let test_memory_distributed_banks () =
  (* Prototype organisation: 4 FUs, 16 words, 4-word banks; FU 1 owns
     words 4..7. *)
  let state =
    state_of ~mem_words:16
      ~mem_organisation:(M.Memory.Distributed { n_fus = 4 })
      ".fus 4\n\
      \  [1] store #9, #5    | -> @1\n\
      \  [0] load #5, #0, r2 | halt\n\
      \  [1] load #5, #0, r1 | halt\n"
  in
  issue state 0;
  commit state;
  check_mem "own bank" state 5 9;
  check_hazards "no hazard yet" [] state;
  issue state 1;
  commit state;
  check_reg "own bank reads the store" state 1 9;
  (* FU 0 reaching into FU 1's bank is a fault. *)
  check_reg "foreign bank reads zero" state 2 0;
  check_hazards "hazard recorded" [ (1, "FU0 accessed out-of-bounds M[5]") ]
    state

let test_memory_distributed_divides () =
  Alcotest.(check bool) "uneven banks rejected" true
    (match
       M.Memory.create ~organisation:(M.Memory.Distributed { n_fus = 3 })
         ~words:16 ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Alu -------------------------------------------------------------- *)

let eval_ok op a b =
  match M.Alu.eval_bin op (Value.of_int a) (Value.of_int b) with
  | Ok v -> v
  | Error M.Alu.Division_by_zero -> Alcotest.fail "unexpected fault"

let test_alu_int_arith () =
  Alcotest.check value "add" (Value.of_int 7) (eval_ok Opcode.Iadd 3 4);
  Alcotest.check value "sub" (Value.of_int (-1)) (eval_ok Opcode.Isub 3 4);
  Alcotest.check value "mul" (Value.of_int 12) (eval_ok Opcode.Imult 3 4);
  Alcotest.check value "div rounds to zero" (Value.of_int (-2))
    (eval_ok Opcode.Idiv (-7) 3);
  Alcotest.check value "mod sign of dividend" (Value.of_int (-1))
    (eval_ok Opcode.Imod (-7) 3);
  (* 32-bit wraparound. *)
  Alcotest.check value "add wraps" (Value.of_int32 Int32.min_int)
    (eval_ok Opcode.Iadd 0x7fffffff 1);
  Alcotest.check value "mul wraps" (Value.of_int32 0x80000000l)
    (eval_ok Opcode.Imult 0x40000000 2)

let test_alu_div_by_zero () =
  List.iter
    (fun op ->
      match M.Alu.eval_bin op Value.one Value.zero with
      | Error M.Alu.Division_by_zero -> ()
      | Ok _ -> Alcotest.fail "division by zero not detected")
    [ Opcode.Idiv; Opcode.Imod ]

let test_alu_shifts_masked () =
  (* Shift amounts use only the low five bits of b. *)
  Alcotest.check value "shl 33 = shl 1" (Value.of_int 2)
    (eval_ok Opcode.Shl 1 33);
  Alcotest.check value "shr logical" (Value.of_int 0x7fffffff)
    (eval_ok Opcode.Shr (-1) 1);
  Alcotest.check value "sar arithmetic" (Value.of_int (-1))
    (eval_ok Opcode.Sar (-1) 1);
  Alcotest.check value "shl by 0" (Value.of_int 5) (eval_ok Opcode.Shl 5 32)

let test_alu_logic () =
  Alcotest.check value "and" (Value.of_int 0b1000) (eval_ok Opcode.And 0b1100 0b1010);
  Alcotest.check value "or" (Value.of_int 0b1110) (eval_ok Opcode.Or 0b1100 0b1010);
  Alcotest.check value "xor" (Value.of_int 0b0110) (eval_ok Opcode.Xor 0b1100 0b1010);
  Alcotest.check value "not" (Value.of_int (-1))
    (M.Alu.eval_un Opcode.Not Value.zero)

let test_alu_float_single_rounding () =
  (* The sum rounds to float32 each step: 1e8 + 1 is not representable. *)
  let a = Value.of_float 1e8 and b = Value.of_float 1.0 in
  (match M.Alu.eval_bin Opcode.Fadd a b with
   | Ok v ->
     Alcotest.(check (float 0.)) "float32 absorption" 1e8 (Value.to_float v)
   | Error _ -> Alcotest.fail "no fault expected");
  match M.Alu.eval_bin Opcode.Fdiv (Value.of_float 1.0) (Value.of_float 0.0)
  with
  | Ok v ->
    Alcotest.(check bool) "float div by zero is inf" true
      (Value.to_float v = infinity)
  | Error _ -> Alcotest.fail "IEEE division produces infinity, not a fault"

let test_alu_conversions () =
  Alcotest.check value "itof" (Value.of_float 5.0)
    (M.Alu.eval_un Opcode.Itof (Value.of_int 5));
  Alcotest.check value "ftoi truncates" (Value.of_int 2)
    (M.Alu.eval_un Opcode.Ftoi (Value.of_float 2.9));
  Alcotest.check value "ftoi negative" (Value.of_int (-2))
    (M.Alu.eval_un Opcode.Ftoi (Value.of_float (-2.9)))

let test_alu_compares () =
  let c op a b = M.Alu.eval_cmp op (Value.of_int a) (Value.of_int b) in
  Alcotest.(check bool) "lt" true (c Opcode.Lt (-5) 3);
  Alcotest.(check bool) "signed lt" false (c Opcode.Lt 3 (-5));
  Alcotest.(check bool) "eq" true (c Opcode.Eq 7 7);
  Alcotest.(check bool) "ge" true (c Opcode.Ge 7 7);
  let f op a b = M.Alu.eval_cmp op (Value.of_float a) (Value.of_float b) in
  Alcotest.(check bool) "flt" true (f Opcode.Flt 1.5 2.5);
  Alcotest.(check bool) "fge" false (f Opcode.Fge 1.5 2.5)

(* --- Ioport ----------------------------------------------------------- *)

let test_ioport_absolute () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.script io ~port:0
    [ (M.Ioport.At 5, Value.of_int 11); (M.Ioport.At 9, Value.of_int 22) ];
  Alcotest.check value "not ready" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:4 ~log 0);
  Alcotest.check value "ready" (Value.of_int 11)
    (M.Ioport.read io ~fu:0 ~cycle:5 ~log 0);
  Alcotest.check value "second not yet" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:6 ~log 0);
  Alcotest.check value "second" (Value.of_int 22)
    (M.Ioport.read io ~fu:0 ~cycle:20 ~log 0);
  Alcotest.check value "exhausted" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:30 ~log 0);
  Alcotest.(check int) "pending drained" 0 (M.Ioport.pending io ~port:0)

let test_ioport_relative () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.script io ~port:2
    [ (M.Ioport.After 10, Value.of_int 1); (M.Ioport.After 10, Value.of_int 2) ];
  Alcotest.check value "gap from zero" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:9 ~log 2);
  Alcotest.check value "first at 10" (Value.of_int 1)
    (M.Ioport.read io ~fu:0 ~cycle:12 ~log 2);
  (* Second becomes ready 10 cycles after consumption (12), i.e. 22. *)
  Alcotest.check value "second not at 21" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:21 ~log 2);
  Alcotest.check value "second at 22" (Value.of_int 2)
    (M.Ioport.read io ~fu:0 ~cycle:22 ~log 2)

let test_ioport_write_log () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.write io ~fu:0 ~cycle:3 ~log 1 (Value.of_int 7);
  M.Ioport.write io ~fu:1 ~cycle:5 ~log 1 (Value.of_int 8);
  let out = M.Ioport.output io ~port:1 in
  Alcotest.(check (list (pair int int))) "write log in order"
    [ (3, 7); (5, 8) ]
    (List.map (fun (c, v) -> (c, Value.to_int v)) out)

let test_ioport_range () =
  let io = M.Ioport.create ~n_ports:4 () in
  let log = fresh_log () in
  Alcotest.check value "bad port reads zero" Value.zero
    (M.Ioport.read io ~fu:2 ~cycle:0 ~log 9);
  M.Ioport.write io ~fu:2 ~cycle:0 ~log 9 Value.one;
  Alcotest.(check int) "two hazards" 2 (M.Hazard.count log)

let test_ioport_script_validation () =
  let io = M.Ioport.create () in
  Alcotest.(check bool) "zero value rejected" true
    (match M.Ioport.script io ~port:0 [ (M.Ioport.At 1, Value.zero) ] with
     | exception Invalid_argument _ -> true
     | () -> false);
  Alcotest.(check bool) "negative time rejected" true
    (match M.Ioport.script io ~port:0 [ (M.Ioport.At (-1), Value.one) ] with
     | exception Invalid_argument _ -> true
     | () -> false)

let suite =
  [ ( "machine",
      [ Alcotest.test_case "regfile staging" `Quick test_regfile_staging;
        Alcotest.test_case "regfile multi-write hazard" `Quick
          test_regfile_multiwrite_hazard;
        Alcotest.test_case "regfile raise policy" `Quick
          test_regfile_raise_policy;
        Alcotest.test_case "regfile same-FU double write" `Quick
          test_regfile_same_fu_double_write_is_hazard;
        Alcotest.test_case "memory staging" `Quick test_memory_staging;
        Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
        Alcotest.test_case "memory multi-write" `Quick test_memory_multiwrite;
        Alcotest.test_case "distributed banks" `Quick
          test_memory_distributed_banks;
        Alcotest.test_case "distributed must divide" `Quick
          test_memory_distributed_divides;
        Alcotest.test_case "alu int arithmetic" `Quick test_alu_int_arith;
        Alcotest.test_case "alu division by zero" `Quick
          test_alu_div_by_zero;
        Alcotest.test_case "alu shift masking" `Quick test_alu_shifts_masked;
        Alcotest.test_case "alu logic" `Quick test_alu_logic;
        Alcotest.test_case "alu float32 rounding" `Quick
          test_alu_float_single_rounding;
        Alcotest.test_case "alu conversions" `Quick test_alu_conversions;
        Alcotest.test_case "alu compares" `Quick test_alu_compares;
        Alcotest.test_case "ioport absolute" `Quick test_ioport_absolute;
        Alcotest.test_case "ioport relative" `Quick test_ioport_relative;
        Alcotest.test_case "ioport write log" `Quick test_ioport_write_log;
        Alcotest.test_case "ioport range" `Quick test_ioport_range;
        Alcotest.test_case "ioport script validation" `Quick
          test_ioport_script_validation ] ) ]
