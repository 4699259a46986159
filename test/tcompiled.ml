(* Every program the compiler emits, pinned byte for byte: the listing
   of each compiler entry point's output on the repository's kernels,
   examples and test functions, and both packers' strips.  A change to
   scheduling, lowering or emission shows up here as a diff. *)

module C = Ximd_compiler
module Kernels = Ximd_report.Kernels

let read_file path = In_channel.with_open_text path In_channel.input_all

let listing program = Format.asprintf "%a" Ximd_core.Program.pp_listing program

let codegen_text = function
  | Ok (c : C.Codegen.compiled) ->
    Printf.sprintf "rows %d, registers %d\n%s" c.static_rows c.used_regs
      (listing c.program)
  | Error errors -> "error: " ^ String.concat "; " errors ^ "\n"

let tracesched_text = function
  | Ok (r : C.Tracesched.result) ->
    Printf.sprintf "trace %s, region rows %d, blockwise rows %d\n%s"
      (String.concat "," r.trace) r.region_rows r.blockwise_rows
      (codegen_text (Ok r.compiled))
  | Error errors -> codegen_text (Error errors)

let kernelgen_text = function
  | Ok (k : C.Kernelgen.t) ->
    Printf.sprintf "ii %d, stages %d, unroll %d, min trip %d, kernel rows %d\n%s"
      k.ii k.stages k.unroll k.min_trip k.kernel_rows (listing k.program)
  | Error msg -> "error: " ^ msg ^ "\n"

let threader_text = function
  | Ok (t : C.Threader.t) ->
    Printf.sprintf "levels %s\n%s"
      (String.concat " | " (List.map (String.concat ",") t.levels))
      (listing t.program)
  | Error errors -> codegen_text (Error errors)

let packing_text = function
  | Ok (p : C.Packing.packing) ->
    Printf.sprintf "height %d, lower bound %d\n%s" p.height p.lower_bound
      (C.Packing.render p)
  | Error msg -> "error: " ^ msg ^ "\n"

let widths = [ 1; 4; 8 ]

let report () =
  let buf = Buffer.create 65536 in
  let section title text =
    Buffer.add_string buf ("== " ^ title ^ "\n");
    Buffer.add_string buf text
  in
  List.iter
    (fun (func : C.Ir.func) ->
      List.iter
        (fun width ->
          section
            (Printf.sprintf "Codegen.compile %s width %d" func.name width)
            (codegen_text (C.Codegen.compile ~width func)))
        widths)
    Kernels.all;
  List.iter
    (fun name ->
      let source = read_file (Printf.sprintf "../examples/xc/%s.xc" name) in
      List.iter
        (fun width ->
          section
            (Printf.sprintf "Lang.compile %s.xc width %d" name width)
            (codegen_text (C.Lang.compile ~width source)))
        widths)
    [ "dot"; "gcd" ];
  List.iter
    (fun (func : C.Ir.func) ->
      List.iter
        (fun width ->
          section
            (Printf.sprintf "Tracesched.compile %s width %d" func.name width)
            (tracesched_text (C.Tracesched.compile ~width func)))
        widths)
    [ Tcompiler.branchy_func; Tcompiler.guarded_func ];
  List.iter
    (fun (name, ops) ->
      List.iter
        (fun width ->
          section
            (Printf.sprintf "Kernelgen.compile %s width %d" name width)
            (kernelgen_text (C.Kernelgen.compile ~width ~live_out:[] ops)))
        [ 2; 4; 8 ])
    Kernels.loop_bodies;
  List.iter
    (fun (name, (threads, wires)) ->
      section
        (Printf.sprintf "Threader.build %s" name)
        (threader_text (C.Threader.build ~threads ~deps:[] ~wires ())))
    [ ("wired pipeline", Tthreader.wired_pipeline ());
      ("diamond", Tthreader.diamond ()) ];
  (match Kernels.menus () with
   | Error errors -> section "Kernels.menus" (codegen_text (Error errors))
   | Ok menus ->
     section "Packing.pack_density n_fus 8"
       (packing_text (C.Packing.pack_density ~n_fus:8 menus));
     let deps =
       [ ("saxpy_step", "reduce8"); ("fir4", "reduce8"); ("addrgen", "fir4") ]
     in
     section "Packing.pack_time n_fus 8"
       (packing_text (C.Packing.pack_time ~n_fus:8 ~deps menus)));
  Buffer.contents buf

let test_golden () =
  Alcotest.(check string)
    "compiled programs match goldens/compiled.txt"
    (read_file "goldens/compiled.txt") (report ())

let suite =
  [ ( "compiled",
      [ Alcotest.test_case "every emitted program matches the golden" `Quick
          test_golden ] ) ]
