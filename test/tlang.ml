(* Source-language frontend tests: parse, lower, compile, run, compare
   against directly computed results. *)

open Ximd_isa
module C = Ximd_compiler

let value = Alcotest.testable Value.pp Value.equal

let compile_ok ?(width = 4) source =
  match C.Lang.compile ~width source with
  | Ok compiled -> compiled
  | Error errors -> Alcotest.failf "compile: %s" (String.concat "; " errors)

let run ?(mem = []) compiled args =
  let config =
    Ximd_core.Config.make ~n_fus:compiled.C.Codegen.width ~max_cycles:200_000
      ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
      compiled.C.Codegen.program
  in
  let setup (state : Ximd_core.State.t) =
    List.iter2
      (fun (_, reg) v ->
        Ximd_machine.Regfile.set state.regs reg (Value.of_int v))
      compiled.C.Codegen.param_regs args;
    List.iter
      (fun (a, v) -> Ximd_core.State.mem_set state a (Value.of_int v))
      mem
  in
  let state = Ximd_core.Session.state session in
  (match Ximd_core.Session.run ~setup session with
   | Ximd_core.Run.Halted _ -> ()
   | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "program hung");
  ( List.map
      (fun (_, reg) ->
        Value.to_int (Ximd_machine.Regfile.read state.regs reg))
      compiled.C.Codegen.result_regs,
    state )

let test_arith () =
  let compiled =
    compile_ok "func f(a, b) { return (a + b) * 3 - (a >> 1); }"
  in
  List.iter
    (fun (a, b) ->
      let got, _ = run compiled [ a; b ] in
      Alcotest.(check (list int))
        (Printf.sprintf "f %d %d" a b)
        [ (((a + b) * 3) - (a asr 1)) land 0xffffffff
          |> fun x -> if x > 0x7fffffff then x - (1 lsl 32) else x ]
        got)
    [ (1, 2); (10, 20); (7, 0) ]

let test_if_else () =
  let compiled =
    compile_ok
      "func max3(a, b, c) {\n\
       m = a;\n\
       if (b > m) { m = b; }\n\
       if (c > m) { m = c; }\n\
       return m;\n\
       }"
  in
  List.iter
    (fun (a, b, c) ->
      let got, _ = run compiled [ a; b; c ] in
      Alcotest.(check (list int)) "max3" [ max a (max b c) ] got)
    [ (1, 2, 3); (3, 2, 1); (2, 3, 1); (5, 5, 5); (-1, -2, -3) ]

let test_return_in_branches () =
  let compiled =
    compile_ok
      "func sign(x) {\n\
       if (x < 0) { return -1; }\n\
       if (x > 0) { return 1; }\n\
       return 0;\n\
       }"
  in
  List.iter
    (fun x ->
      let got, _ = run compiled [ x ] in
      Alcotest.(check (list int)) "sign" [ compare x 0 ] got)
    [ -5; 0; 17 ]

let test_while_loop () =
  let compiled =
    compile_ok
      "func sumsq(n) {\n\
       i = 0; acc = 0;\n\
       while (i < n) { acc = acc + i * i; i = i + 1; }\n\
       return acc;\n\
       }"
  in
  List.iter
    (fun n ->
      let expected = ref 0 in
      for i = 0 to n - 1 do
        expected := !expected + (i * i)
      done;
      let got, _ = run compiled [ n ] in
      Alcotest.(check (list int)) (Printf.sprintf "sumsq %d" n) [ !expected ]
        got)
    [ 0; 1; 5; 20 ]

let test_memory () =
  let compiled =
    compile_ok
      "func sumrange(base, n) {\n\
       i = 0; acc = 0;\n\
       while (i < n) { acc = acc + mem[base + i]; i = i + 1; }\n\
       mem[base + n] = acc;\n\
       return acc;\n\
       }"
  in
  let mem = List.init 8 (fun i -> (300 + i, (i * 3) + 1)) in
  let got, state = run ~mem compiled [ 300; 8 ] in
  let expected = List.fold_left (fun acc (_, v) -> acc + v) 0 mem in
  Alcotest.(check (list int)) "sum" [ expected ] got;
  Alcotest.check value "stored"
    (Value.of_int expected)
    (Ximd_core.State.mem_get state 308)

let test_multiple_returns_values () =
  let compiled = compile_ok "func divmod(a, b) { return a / b, a % b; }" in
  let got, _ = run compiled [ 17; 5 ] in
  Alcotest.(check (list int)) "divmod" [ 3; 2 ] got

let test_nested_control () =
  let compiled =
    compile_ok
      "func collatz_steps(x) {\n\
       steps = 0;\n\
       while (x != 1) {\n\
         if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }\n\
         steps = steps + 1;\n\
       }\n\
       return steps;\n\
       }"
  in
  let reference x =
    let rec loop x steps = if x = 1 then steps
      else loop (if x mod 2 = 0 then x / 2 else (3 * x) + 1) (steps + 1)
    in
    loop x 0
  in
  List.iter
    (fun x ->
      let got, _ = run compiled [ x ] in
      Alcotest.(check (list int)) (Printf.sprintf "collatz %d" x)
        [ reference x ] got)
    [ 1; 6; 27 ]

let test_parse_errors () =
  List.iter
    (fun source ->
      match C.Lang.parse source with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" source)
    [ "func f( { return 1; }";
      "func f(a) { a = ; }";
      "func f(a) { if a < 1 { } }";
      "func f(a) { return 1; } extra";
      "func f(a) { while (a) { } }" (* bare expr is not a condition *);
      "func f(a) { x = a @ 3; }" ]

let test_precedence () =
  let compiled = compile_ok "func f(a) { return 1 + a * 4 << 1 & 12; }" in
  (* C precedence: ((1 + (a*4)) << 1) & 12 *)
  let got, _ = run compiled [ 3 ] in
  Alcotest.(check (list int)) "precedence" [ ((1 + (3 * 4)) lsl 1) land 12 ]
    got

let test_against_interp () =
  (* The compiled program agrees with the IR interpreter. *)
  let source =
    "func f(a, b) {\n\
     t = a * b;\n\
     if (t >= 100) { t = t - 100; } else { t = t + b; }\n\
     return t;\n\
     }"
  in
  match C.Lang.parse source with
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" C.Lang.pp_error e)
  | Ok func ->
    List.iter
      (fun (a, b) ->
        let args = [ Value.of_int a; Value.of_int b ] in
        match C.Interp.run func ~args ~mem:[] with
        | Error msg -> Alcotest.fail msg
        | Ok outcome ->
          let compiled = compile_ok source in
          let got, _ = run compiled [ a; b ] in
          Alcotest.(check (list int)) "matches interp"
            (List.map Value.to_int outcome.results)
            got)
      [ (3, 5); (20, 8); (10, 10) ]

let suite =
  [ ( "lang",
      [ Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "if/else" `Quick test_if_else;
        Alcotest.test_case "returns in branches" `Quick
          test_return_in_branches;
        Alcotest.test_case "while loop" `Quick test_while_loop;
        Alcotest.test_case "memory" `Quick test_memory;
        Alcotest.test_case "multiple return values" `Quick
          test_multiple_returns_values;
        Alcotest.test_case "nested control (collatz)" `Quick
          test_nested_control;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "precedence" `Quick test_precedence;
        Alcotest.test_case "agrees with interpreter" `Quick
          test_against_interp ] ) ]
