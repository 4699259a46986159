(* Assembler and builder tests. *)

open Ximd_isa
module B = Ximd_asm.Builder
module Src = Ximd_asm.Source

let parse_ok text =
  match Src.parse text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Src.pp_error e)

let parse_err text =
  match Src.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* --- Source parsing --------------------------------------------------- *)

let sample =
  {|; a sample program
.fus 2

start:
  [0] iadd r1, #1, r1   | -> test
  [1] load r1, r2, r3   | -> test
test:
  [0] lt r1, #10        | -> branch
branch:
  [0] nop               | if cc0 start : fin | done
  [1] nop               | if cc0 start : fin
fin:
  [0] store r1, #100    | halt
  [1] nop               | halt
|}

let test_parse_basics () =
  let p = parse_ok sample in
  Alcotest.(check int) "fus" 2 (Ximd_core.Program.n_fus p);
  Alcotest.(check int) "rows" 4 (Ximd_core.Program.length p);
  Alcotest.(check (option int)) "start" (Some 0)
    (Ximd_core.Program.address_of p "start");
  Alcotest.(check (option int)) "fin" (Some 3)
    (Ximd_core.Program.address_of p "fin");
  (* Row 0 FU 0 parcel. *)
  (match Ximd_core.Program.fetch p ~fu:0 ~addr:0 with
   | Some parcel ->
     (match parcel.data with
      | Parcel.Dbin { op = Opcode.Iadd; a = Operand.Reg a; b = Operand.Imm v;
                      d } ->
        Alcotest.(check int) "a" 1 (Reg.index a);
        Alcotest.(check int) "imm" 1 (Value.to_int v);
        Alcotest.(check int) "d" 1 (Reg.index d)
      | _ -> Alcotest.fail "row 0 fu 0 should be iadd r1,#1,r1")
   | None -> Alcotest.fail "fetch failed");
  (* Sync on row 2 FU 0 is done, FU 1 defaults busy. *)
  (match Ximd_core.Program.fetch p ~fu:0 ~addr:2 with
   | Some parcel -> Alcotest.(check bool) "done" true
                      (Sync.equal parcel.sync Sync.Done)
   | None -> Alcotest.fail "fetch failed");
  match Ximd_core.Program.fetch p ~fu:1 ~addr:2 with
  | Some parcel ->
    Alcotest.(check bool) "busy" true (Sync.equal parcel.sync Sync.Busy)
  | None -> Alcotest.fail "fetch failed"

let test_parse_fill_missing_columns () =
  let p = parse_ok {|.fus 4
l:
  [0] iadd r0, r1, r2 | -> l
|} in
  (* Columns 1..3 are nops carrying column 0's control. *)
  List.iter
    (fun fu ->
      match Ximd_core.Program.fetch p ~fu ~addr:0 with
      | Some parcel ->
        Alcotest.(check bool) "nop" true (Parcel.is_nop parcel.data);
        Alcotest.(check bool) "ctl copied" true
          (Control.equal parcel.control (Control.goto 0))
      | None -> Alcotest.fail "fetch")
    [ 1; 2; 3 ]

let test_parse_conditions () =
  let p = parse_ok {|.fus 4
a:
  [0] nop | if all a : b
b:
  [0] nop | if all(0,2) a : b
  [1] nop | if any(1) a : b
  [2] nop | if ss3 a : b
  [3] nop | halt
|} in
  let ctl fu addr =
    match Ximd_core.Program.fetch p ~fu ~addr with
    | Some parcel -> parcel.control
    | None -> Alcotest.fail "fetch"
  in
  Alcotest.(check bool) "all full mask" true
    (Control.equal (ctl 0 0) (Control.br (Cond.All_ss 0b1111) 0 1));
  Alcotest.(check bool) "all(0,2)" true
    (Control.equal (ctl 0 1) (Control.br (Cond.All_ss 0b101) 0 1));
  Alcotest.(check bool) "any(1)" true
    (Control.equal (ctl 1 1) (Control.br (Cond.Any_ss 0b10) 0 1));
  Alcotest.(check bool) "ss3" true
    (Control.equal (ctl 2 1) (Control.br (Cond.Ss 3) 0 1));
  Alcotest.(check bool) "halt" true (Control.equal (ctl 3 1) Control.Halt)

let test_parse_errors_have_lines () =
  let e = parse_err ".fus 2\n[0] bogus r1, r2 | -> x\n" in
  Alcotest.(check int) "line 2" 2 e.line;
  let e = parse_err ".fus 2\n[0] nop | -> missing\n" in
  Alcotest.(check int) "undefined label line" 2 e.line;
  let e = parse_err "[0] nop | halt\n" in
  Alcotest.(check bool) "missing .fus mentions it" true
    (e.line = 1);
  let e = parse_err ".fus 2\n[5] nop | halt\n" in
  Alcotest.(check int) "bad fu index" 2 e.line;
  let e = parse_err ".fus 2\nl:\nl:\n  [0] nop | halt\n" in
  Alcotest.(check int) "duplicate label" 3 e.line;
  let e = parse_err ".fus 2\n  [0] nop | if cc7 a : a\na:\n  [0] nop | halt\n" in
  Alcotest.(check int) "cc out of range" 2 e.line

let test_parse_immediates () =
  let p = parse_ok {|.fus 1
l:
  [0] mov #-5, r1 | -> m
m:
  [0] mov #0x1f, r2 | -> n
n:
  [0] mov #f:2.5, r3 | halt
|} in
  let imm fu addr =
    match Ximd_core.Program.fetch p ~fu ~addr with
    | Some { data = Parcel.Dun { a = Operand.Imm v; _ }; _ } -> v
    | _ -> Alcotest.fail "expected mov imm"
  in
  Alcotest.(check int) "negative" (-5) (Value.to_int (imm 0 0));
  Alcotest.(check int) "hex" 31 (Value.to_int (imm 0 1));
  Alcotest.(check (float 0.)) "float" 2.5 (Value.to_float (imm 0 2))

let test_source_roundtrip () =
  (* Disassemble the MINMAX workload program and re-assemble: the code
     must be identical. *)
  let original = (Ximd_workloads.Minmax.make ()).ximd.program in
  let source = Src.to_source original in
  let reparsed = parse_ok source in
  Alcotest.(check bool) "roundtrip" true
    (Ximd_core.Program.equal_code original reparsed)

let test_source_roundtrip_bitcount () =
  let original = (Ximd_workloads.Bitcount.make ()).ximd.program in
  let reparsed = parse_ok (Src.to_source original) in
  Alcotest.(check bool) "roundtrip" true
    (Ximd_core.Program.equal_code original reparsed)

(* [rows] labelled rows on one FU, each branching to the next label (the
   last back to the first). *)
let labelled_chain rows =
  let buf = Buffer.create (rows * 24) in
  Buffer.add_string buf ".fus 1\n";
  for r = 0 to rows - 1 do
    Printf.bprintf buf "l%d:\n  [0] nop | -> l%d\n" r ((r + 1) mod rows)
  done;
  Buffer.contents buf

(* Parsing must stay linear in the label count: 4x the labelled rows may
   take well under 16x the time (on a 2-vCPU VM a quadratic parser took
   14-19x, a linear one 4-5x).  Each size is the median of five parses;
   the sizes alternate, so a burst of load on the host hits both
   alike. *)
let test_parse_linear_in_labels () =
  let parse rows text =
    let t0 = Unix.gettimeofday () in
    let p = parse_ok text in
    let dt = Unix.gettimeofday () -. t0 in
    for r = 0 to rows - 1 do
      match Ximd_core.Program.fetch p ~fu:0 ~addr:r with
      | Some { control; _ } ->
        if not (Control.equal control (Control.goto ((r + 1) mod rows))) then
          Alcotest.failf "row %d of %d: wrong target" r rows
      | None -> Alcotest.failf "row %d of %d missing" r rows
    done;
    dt
  in
  let small = labelled_chain 4096 and large = labelled_chain 16384 in
  let times = List.init 5 (fun _ -> (parse 4096 small, parse 16384 large)) in
  let median xs = List.nth (List.sort Float.compare xs) 2 in
  let small = median (List.map fst times)
  and large = median (List.map snd times) in
  if large >= 8. *. small then
    Alcotest.failf "4x the labels took %.1fx as long (%.4fs vs %.4fs)"
      (large /. small) large small

(* --- Builder ----------------------------------------------------------- *)

let test_builder_forward_labels () =
  let t = B.create ~n_fus:2 in
  B.row t ~ctl:(B.goto (B.lbl "later")) [];
  B.row t ~ctl:(B.goto B.self) [];
  B.label t "later";
  B.halt_row t;
  let p = B.build t in
  match Ximd_core.Program.fetch p ~fu:0 ~addr:0 with
  | Some parcel ->
    Alcotest.(check bool) "forward ref" true
      (Control.equal parcel.control (Control.goto 2))
  | None -> Alcotest.fail "fetch"

let test_builder_errors () =
  Alcotest.(check bool) "undefined label" true
    (let t = B.create ~n_fus:1 in
     B.row t ~ctl:(B.goto (B.lbl "nowhere")) [];
     match B.build t with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "fall off the end" true
    (let t = B.create ~n_fus:1 in
     B.row t [];
     match B.build t with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "duplicate label" true
    (let t = B.create ~n_fus:1 in
     B.label t "x";
     B.halt_row t;
     match B.label t "x" with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "trailing label" true
    (let t = B.create ~n_fus:1 in
     B.halt_row t;
     B.label t "dangling";
     match B.build t with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "too many specs" true
    (let t = B.create ~n_fus:1 in
     match B.row t [ B.d B.nop; B.d B.nop ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_builder_pad_to () =
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:(B.goto (B.lbl "end")) [];
  B.pad_to t 0x08;
  B.label t "end";
  B.halt_row t;
  let p = B.build t in
  Alcotest.(check int) "length" 9 (Ximd_core.Program.length p);
  Alcotest.(check (option int)) "end at 8" (Some 8)
    (Ximd_core.Program.address_of p "end");
  (* Fillers are self-loops. *)
  match Ximd_core.Program.fetch p ~fu:0 ~addr:3 with
  | Some parcel ->
    Alcotest.(check bool) "filler self-loop" true
      (Control.equal parcel.control (Control.goto 3))
  | None -> Alcotest.fail "fetch"

let test_builder_named_registers () =
  let t = B.create ~n_fus:1 in
  let a = B.reg t "alpha" in
  let b = B.reg t "beta" in
  let a' = B.reg t "alpha" in
  Alcotest.(check bool) "same name same reg" true (Reg.equal a a');
  Alcotest.(check bool) "distinct names distinct regs" false (Reg.equal a b)

let suite =
  [ ( "asm",
      [ Alcotest.test_case "parse basics" `Quick test_parse_basics;
        Alcotest.test_case "missing columns filled" `Quick
          test_parse_fill_missing_columns;
        Alcotest.test_case "conditions" `Quick test_parse_conditions;
        Alcotest.test_case "errors carry line numbers" `Quick
          test_parse_errors_have_lines;
        Alcotest.test_case "immediates" `Quick test_parse_immediates;
        Alcotest.test_case "minmax source roundtrip" `Quick
          test_source_roundtrip;
        Alcotest.test_case "bitcount source roundtrip" `Quick
          test_source_roundtrip_bitcount;
        Alcotest.test_case "parse linear in label count" `Quick
          test_parse_linear_in_labels;
        Alcotest.test_case "builder forward labels" `Quick
          test_builder_forward_labels;
        Alcotest.test_case "builder errors" `Quick test_builder_errors;
        Alcotest.test_case "builder pad_to" `Quick test_builder_pad_to;
        Alcotest.test_case "builder named registers" `Quick
          test_builder_named_registers ] ) ]
