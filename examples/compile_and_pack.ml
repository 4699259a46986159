(* The compiler path (paper §4.2): write a kernel in the IR, compile it
   at several widths, run the compiled code on both simulators, then
   reproduce the Figure 13 tile-packing picture for six threads.

     dune exec examples/compile_and_pack.exe *)

open Ximd_isa
module C = Ximd_compiler

(* polynomial:  r = (x + 3)^2 * (x - 5)  with a guard against overflowy
   inputs — two blocks and a branch, to show the whole pipeline. *)
let kernel =
  let x = 0 and a = 1 and b = 2 and sq = 3 and res = 4 in
  { C.Ir.name = "poly";
    params = [ x ];
    results = [ res ];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Bin (Opcode.Iadd, C.Ir.V x, C.Ir.C 3l, a);
              C.Ir.Bin (Opcode.Isub, C.Ir.V x, C.Ir.C 5l, b);
              C.Ir.Bin (Opcode.Imult, C.Ir.V a, C.Ir.V a, sq);
              C.Ir.Cmp (Opcode.Lt, C.Ir.V x, C.Ir.C 10_000l, 0) ];
          term = C.Ir.Branch (0, "ok", "too_big") };
        { C.Ir.label = "ok";
          body = [ C.Ir.Bin (Opcode.Imult, C.Ir.V sq, C.Ir.V b, res) ];
          term = C.Ir.Return };
        { C.Ir.label = "too_big";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C (-1l), res) ];
          term = C.Ir.Return } ] }

let run_width width x =
  match C.Codegen.compile ~width kernel with
  | Error errors -> failwith (String.concat "; " errors)
  | Ok compiled ->
    let config = Ximd_core.Config.make ~n_fus:width () in
    let session =
      Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
        compiled.program
    in
    let setup (state : Ximd_core.State.t) =
      match compiled.param_regs with
      | [ (_, r) ] -> Ximd_machine.Regfile.set state.regs r (Value.of_int x)
      | _ -> assert false
    in
    let outcome = Ximd_core.Session.run ~setup session in
    let state = Ximd_core.Session.state session in
    let result =
      match compiled.result_regs with
      | [ (_, r) ] -> Ximd_machine.Regfile.read state.regs r
      | _ -> assert false
    in
    (compiled.static_rows, Ximd_core.Run.cycles outcome, result)

let () =
  Format.printf "compiling 'poly' at widths 1..8:@.";
  List.iter
    (fun width ->
      let rows, cycles, result = run_width width 7 in
      Format.printf
        "  width %d: %2d static rows, %2d cycles, poly(7) = %a@."
        width rows cycles Value.pp result)
    [ 1; 2; 4; 8 ];
  (* The interpreter agrees. *)
  (match C.Interp.run kernel ~args:[ Value.of_int 7 ] ~mem:[] with
   | Ok outcome ->
     Format.printf "interpreter: poly(7) = %a@."
       Value.pp (List.hd outcome.results)
   | Error msg -> Format.printf "interpreter failed: %s@." msg);
  Format.printf "@.";
  (* Figure 13: tile menus and the two packings. *)
  Ximd_report.Experiments.e7 Format.std_formatter
