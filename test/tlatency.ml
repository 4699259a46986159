(* Latency-aware compilation: code compiled for the prototype's
   pipelined datapath must run correctly on it (and still correctly on
   the research model, where the extra slack is merely conservative). *)

open Ximd_isa
module C = Ximd_compiler

let value = Alcotest.testable Value.pp Value.equal

let sources =
  [ ( "clamped polynomial",
      "func f(a, b) {\n\
       t = a * b + 3;\n\
       if (t >= 100) { t = t - 100; } else { t = t + b; }\n\
       return t;\n\
       }",
      [ [ 3; 5 ]; [ 20; 8 ]; [ 10; 10 ] ] );
    ( "loop",
      "func g(n) { i = 0; acc = 1;\n\
       while (i < n) { acc = acc + acc + i; i = i + 1; }\n\
       return acc;\n\
       }",
      [ [ 0 ]; [ 1 ]; [ 7 ] ] );
    ( "memory",
      "func h(base) {\n\
       x = mem[base]; y = mem[base + 1];\n\
       mem[base + 2] = x * y;\n\
       return mem[base + 2] + 1;\n\
       }",
      [ [ 320 ] ] ) ]

let run_on ~result_latency (compiled : C.Codegen.compiled) args =
  let config =
    Ximd_core.Config.make ~n_fus:compiled.width ~result_latency
      ~max_cycles:200_000 ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
      compiled.program
  in
  let bind =
    match C.Codegen.bind_args compiled (List.map Value.of_int args) with
    | Ok bind -> bind
    | Error msg -> Alcotest.fail msg
  in
  let setup (state : Ximd_core.State.t) =
    bind state;
    List.iter
      (fun a -> Ximd_core.State.mem_set state a (Value.of_int ((a * 3) + 1)))
      [ 320; 321 ]
  in
  (match Ximd_core.Session.run ~setup session with
   | Ximd_core.Run.Halted { cycles } -> ignore cycles
   | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "hung");
  C.Codegen.results compiled (Ximd_core.Session.state session)

let expected_of source args =
  match C.Lang.parse source with
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" C.Lang.pp_error e)
  | Ok func -> (
    let mem = [ (320, Value.of_int 961); (321, Value.of_int 964) ] in
    match C.Interp.run func ~args:(List.map Value.of_int args) ~mem with
    | Ok outcome -> outcome.results
    | Error msg -> Alcotest.fail msg)

let compile_lang ?latency ~width source =
  match C.Lang.parse source with
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" C.Lang.pp_error e)
  | Ok func -> (
    match C.Codegen.compile ~width ?latency func with
    | Ok compiled -> compiled
    | Error errors -> Alcotest.failf "%s" (String.concat "; " errors))

let test_latency_aware_runs_on_prototype () =
  List.iter
    (fun (name, source, arg_sets) ->
      List.iter
        (fun latency ->
          let compiled = compile_lang ~latency ~width:4 source in
          List.iter
            (fun args ->
              let got = run_on ~result_latency:latency compiled args in
              Alcotest.(check (list value))
                (Printf.sprintf "%s lat=%d" name latency)
                (expected_of source args) got)
            arg_sets)
        [ 1; 2; 3 ])
    sources

let test_latency_aware_still_ok_on_research_model () =
  (* Latency-3 code is merely conservative on the 1-cycle machine. *)
  List.iter
    (fun (name, source, arg_sets) ->
      let compiled = compile_lang ~latency:3 ~width:4 source in
      List.iter
        (fun args ->
          let got = run_on ~result_latency:1 compiled args in
          Alcotest.(check (list value)) name (expected_of source args) got)
        arg_sets)
    sources

let test_latency_unaware_fails () =
  (* Confidence that the test is meaningful: default (latency-1) code
     gives a WRONG answer on the latency-3 machine for at least one of
     these programs. *)
  let any_wrong =
    List.exists
      (fun (_, source, arg_sets) ->
        let compiled = compile_lang ~width:4 source in
        List.exists
          (fun args ->
            run_on ~result_latency:3 compiled args
            <> expected_of source args)
          arg_sets)
      sources
  in
  if not any_wrong then
    Alcotest.fail "expected naive code to break somewhere on latency 3"

let test_latency_cost () =
  (* Scheduling for latency stretches the static code. *)
  let _, source, _ = List.nth sources 0 in
  let fast = compile_lang ~latency:1 ~width:4 source in
  let slow = compile_lang ~latency:3 ~width:4 source in
  if slow.static_rows <= fast.static_rows then
    Alcotest.failf "latency-3 schedule (%d rows) should be longer than \
                    latency-1 (%d rows)"
      slow.static_rows fast.static_rows

let suite =
  [ ( "latency-aware",
      [ Alcotest.test_case "correct on pipelined prototype" `Quick
          test_latency_aware_runs_on_prototype;
        Alcotest.test_case "conservative on research model" `Quick
          test_latency_aware_still_ok_on_research_model;
        Alcotest.test_case "naive code provably breaks" `Quick
          test_latency_unaware_fails;
        Alcotest.test_case "latency costs static rows" `Quick
          test_latency_cost ] ) ]
