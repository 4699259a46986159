(* Threader tests: materialising multi-thread programs with levels,
   barriers and wires, and checking them against the interpreter. *)

open Ximd_isa
module C = Ximd_compiler
module Op = Opcode

let value = Alcotest.testable Value.pp Value.equal

let block body = { C.Ir.label = "entry"; body; term = C.Ir.Return }

(* sum4(a,b,c,d) = a+b+c+d *)
let sum4 name =
  { C.Ir.name; params = [ 0; 1; 2; 3 ]; results = [ 6 ];
    blocks =
      [ block
          [ C.Ir.Bin (Op.Iadd, C.Ir.V 0, C.Ir.V 1, 4);
            C.Ir.Bin (Op.Iadd, C.Ir.V 2, C.Ir.V 3, 5);
            C.Ir.Bin (Op.Iadd, C.Ir.V 4, C.Ir.V 5, 6) ] ] }

(* square_plus(x, y) = x*x + y *)
let square_plus name =
  { C.Ir.name; params = [ 0; 1 ]; results = [ 3 ];
    blocks =
      [ block
          [ C.Ir.Bin (Op.Imult, C.Ir.V 0, C.Ir.V 0, 2);
            C.Ir.Bin (Op.Iadd, C.Ir.V 2, C.Ir.V 1, 3) ] ] }

(* scale(x) = 3*x - 1, with a longer serial chain *)
let scale name =
  { C.Ir.name; params = [ 0 ]; results = [ 3 ];
    blocks =
      [ block
          [ C.Ir.Bin (Op.Imult, C.Ir.V 0, C.Ir.C 3l, 1);
            C.Ir.Bin (Op.Isub, C.Ir.V 1, C.Ir.C 1l, 2);
            C.Ir.Un (Op.Mov, C.Ir.V 2, 3) ] ] }

let build_ok ?widths ~threads ~deps ~wires () =
  match C.Threader.build ?widths ~threads ~deps ~wires () with
  | Ok t -> t
  | Error errors -> Alcotest.failf "build: %s" (String.concat "; " errors)

let run_ok t ~args =
  match C.Threader.run t ~args with
  | Ok (outcome, state) ->
    (match outcome with
     | Ximd_core.Run.Halted _ -> (outcome, state)
     | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
       Alcotest.fail "threaded program hung")
  | Error msg -> Alcotest.fail msg

let check_against_reference t ~threads ~args =
  let _, state = run_ok t ~args in
  let got = C.Threader.results t state in
  match C.Threader.reference t ~threads ~args with
  | Error msg -> Alcotest.fail msg
  | Ok expected ->
    List.iter
      (fun (name, values) ->
        let got_values = List.assoc name got in
        Alcotest.(check (list value)) name values got_values)
      expected;
    state

let test_independent_threads () =
  (* Three independent threads share one level and run concurrently. *)
  let threads = [ sum4 "s1"; square_plus "sq"; scale "sc" ] in
  let t = build_ok ~threads ~deps:[] ~wires:[] () in
  Alcotest.(check int) "one level" 1 (List.length t.levels);
  let args =
    [ ("s1", List.map Value.of_int [ 1; 2; 3; 4 ]);
      ("sq", List.map Value.of_int [ 5; 7 ]);
      ("sc", [ Value.of_int 10 ]) ]
  in
  let state = check_against_reference t ~threads ~args in
  (* They genuinely ran as separate streams. *)
  Alcotest.(check bool) "concurrent streams" true
    (state.stats.max_streams >= 3)

(* sq(x,y) feeds sc, which feeds the final sum4's first parameter. *)
let wired_pipeline () =
  ( [ square_plus "sq"; scale "sc"; sum4 "total" ],
    [ { C.Threader.from_thread = "sq"; from_result = 0; to_thread = "sc";
        to_param = 0 };
      { C.Threader.from_thread = "sc"; from_result = 0; to_thread = "total";
        to_param = 0 } ] )

(* a -> {b, c} -> d with wires along every edge. *)
let diamond () =
  ( [ scale "a"; square_plus "b"; square_plus "c"; sum4 "d" ],
    [ { C.Threader.from_thread = "a"; from_result = 0; to_thread = "b";
        to_param = 0 };
      { C.Threader.from_thread = "a"; from_result = 0; to_thread = "c";
        to_param = 1 };
      { C.Threader.from_thread = "b"; from_result = 0; to_thread = "d";
        to_param = 0 };
      { C.Threader.from_thread = "c"; from_result = 0; to_thread = "d";
        to_param = 1 } ] )

let test_wired_pipeline () =
  let threads, wires = wired_pipeline () in
  let t = build_ok ~threads ~deps:[] ~wires () in
  Alcotest.(check int) "three levels" 3 (List.length t.levels);
  let args =
    [ ("sq", List.map Value.of_int [ 4; 2 ]);  (* 4*4+2 = 18 *)
      ("total", List.map Value.of_int [ 0; 10; 20; 30 ]) ]
  in
  let state = check_against_reference t ~threads ~args in
  (* total = sc(18) + 10 + 20 + 30 = (3*18-1) + 60 = 113 *)
  let total = List.assoc "total" (C.Threader.results t state) in
  Alcotest.(check (list value)) "pipeline value" [ Value.of_int 113 ] total

let test_diamond_deps () =
  let threads, wires = diamond () in
  let t = build_ok ~threads ~deps:[] ~wires () in
  Alcotest.(check int) "three levels" 3 (List.length t.levels);
  (* b and c share the middle level. *)
  Alcotest.(check (list (list string))) "levels"
    [ [ "a" ]; [ "b"; "c" ]; [ "d" ] ]
    t.levels;
  let args =
    [ ("a", [ Value.of_int 2 ]);          (* a = 5 *)
      ("b", List.map Value.of_int [ 0; 1 ]);  (* b = a^2+1 = 26 *)
      ("c", List.map Value.of_int [ 3; 0 ]);  (* c = 9+a = 14 *)
      ("d", List.map Value.of_int [ 0; 0; 100; 200 ]) ]
  in
  let state = check_against_reference t ~threads ~args in
  let d_result = List.assoc "d" (C.Threader.results t state) in
  (* d = b + c + 100 + 200 = 26 + 14 + 300 = 340 *)
  Alcotest.(check (list value)) "diamond value" [ Value.of_int 340 ] d_result

let test_cycle_rejected () =
  let threads = [ scale "x"; scale "y" ] in
  match
    C.Threader.build ~threads ~deps:[ ("x", "y"); ("y", "x") ] ~wires:[] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle accepted"

let test_level_overflow_rejected () =
  (* Nine width-1 threads cannot share an 8-FU level. *)
  let threads = List.init 9 (fun i -> scale (Printf.sprintf "t%d" i)) in
  let widths = List.init 9 (fun i -> (Printf.sprintf "t%d" i, 1)) in
  match C.Threader.build ~widths ~threads ~deps:[] ~wires:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "level overflow accepted"

let test_backward_wire_rejected () =
  let threads = [ scale "x"; scale "y" ] in
  let wires =
    [ { C.Threader.from_thread = "x"; from_result = 0; to_thread = "y";
        to_param = 0 };
      { C.Threader.from_thread = "y"; from_result = 0; to_thread = "x";
        to_param = 0 } ]
  in
  match C.Threader.build ~threads ~deps:[] ~wires () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backward wire accepted"

let test_makespan_beats_serial () =
  (* Four independent serial threads at width 1: concurrent execution
     should take roughly max rather than sum of their lengths. *)
  let threads = List.init 4 (fun i -> scale (Printf.sprintf "t%d" i)) in
  let widths = List.init 4 (fun i -> (Printf.sprintf "t%d" i, 1)) in
  let t = build_ok ~widths ~threads ~deps:[] ~wires:[] () in
  let args =
    List.init 4 (fun i -> (Printf.sprintf "t%d" i, [ Value.of_int i ]))
  in
  let outcome, _ = run_ok t ~args in
  let cycles = Ximd_core.Run.cycles outcome in
  (* Each thread alone is ~4 rows; serial execution would be ~16+. *)
  if cycles > 12 then
    Alcotest.failf "expected concurrent execution, got %d cycles" cycles

let suite =
  [ ( "threader",
      [ Alcotest.test_case "independent threads" `Quick
          test_independent_threads;
        Alcotest.test_case "wired pipeline" `Quick test_wired_pipeline;
        Alcotest.test_case "diamond dependences" `Quick test_diamond_deps;
        Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
        Alcotest.test_case "level overflow rejected" `Quick
          test_level_overflow_rejected;
        Alcotest.test_case "backward wire rejected" `Quick
          test_backward_wire_rejected;
        Alcotest.test_case "concurrency beats serial" `Quick
          test_makespan_beats_serial ] ) ]
