(* Compiler tests: compiled programs must agree with the IR interpreter
   (which evaluates through the same ALU), on both simulators. *)

open Ximd_isa
module C = Ximd_compiler

let value = Alcotest.testable Value.pp Value.equal

(* Run a compiled function on the given simulator and return the result
   registers' final values. *)
let run_compiled ?(sim = `Vliw) (compiled : C.Codegen.compiled) ~args
    ~mem =
  let config =
    Ximd_core.Config.make ~n_fus:compiled.width ~max_cycles:200_000 ()
  in
  let model =
    match sim with
    | `Vliw -> Ximd_core.Engine.Global
    | `Ximd -> Ximd_core.Engine.Per_fu
  in
  let session = Ximd_core.Session.create ~config ~model compiled.program in
  let setup (state : Ximd_core.State.t) =
    List.iter2
      (fun (_, reg) arg -> Ximd_machine.Regfile.set state.regs reg arg)
      compiled.param_regs args;
    List.iter (fun (addr, v) -> Ximd_core.State.mem_set state addr v) mem
  in
  let outcome = Ximd_core.Session.run ~setup session in
  let state = Ximd_core.Session.state session in
  (match outcome with
   | Ximd_core.Run.Halted _ -> ()
   | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "compiled program hung");
  ( List.map
      (fun (_, reg) -> Ximd_machine.Regfile.read state.regs reg)
      compiled.result_regs,
    state )

let interp_results func ~args ~mem =
  match C.Interp.run func ~args ~mem with
  | Ok outcome -> outcome.results
  | Error msg -> Alcotest.failf "interpreter: %s" msg

let compile_ok ?width func =
  match C.Codegen.compile ?width func with
  | Ok compiled -> compiled
  | Error errors -> Alcotest.failf "compile: %s" (String.concat "; " errors)

(* --- The paper's TPROC, as IR ------------------------------------- *)

let tproc_func =
  let a = 0 and b = 1 and c = 2 and d = 3 in
  let e = 4 and f = 5 and g = 6 and t1 = 7 and t2 = 8 and t3 = 9 in
  let t4 = 10 and res = 11 in
  { C.Ir.name = "tproc";
    params = [ a; b; c; d ];
    results = [ res ];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Bin (Opcode.Iadd, C.Ir.V a, C.Ir.V b, e);
              C.Ir.Bin (Opcode.Imult, C.Ir.V c, C.Ir.V a, t1);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V e, C.Ir.V t1, f);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V b, C.Ir.V c, t2);
              C.Ir.Bin (Opcode.Isub, C.Ir.V a, C.Ir.V t2, g);
              C.Ir.Bin (Opcode.Isub, C.Ir.V d, C.Ir.V e, t3);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V e, C.Ir.V c, t4);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V t4, C.Ir.V d, t4);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V t4, C.Ir.V t3, t4);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V f, C.Ir.V g, res);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V t4, C.Ir.V res, res) ];
          term = C.Ir.Return } ] }

let test_tproc_compile () =
  let args = List.map Value.of_int [ 3; 5; 7; 11 ] in
  let expected = interp_results tproc_func ~args ~mem:[] in
  List.iter
    (fun width ->
      let compiled = compile_ok ~width tproc_func in
      let got_v, _ = run_compiled ~sim:`Vliw compiled ~args ~mem:[] in
      let got_x, _ = run_compiled ~sim:`Ximd compiled ~args ~mem:[] in
      Alcotest.(check (list value)) (Printf.sprintf "vliw w=%d" width)
        expected got_v;
      Alcotest.(check (list value)) (Printf.sprintf "ximd w=%d" width)
        expected got_x)
    [ 1; 2; 4; 8 ];
  (* And the reference value matches the hand-written workload. *)
  match expected with
  | [ r ] ->
    Alcotest.check value "matches Tproc.reference"
      (Value.of_int32
         (Ximd_workloads.Tproc.reference ~a:3l ~b:5l ~c:7l ~d:11l))
      r
  | _ -> Alcotest.fail "one result expected"

let test_width_speed () =
  (* Wider machines must not lengthen the schedule. *)
  let lens =
    List.map
      (fun width -> (compile_ok ~width tproc_func).static_rows)
      [ 1; 2; 4; 8 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      if b > a then Alcotest.fail "wider schedule got longer";
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone lens

(* --- A branchy function: abs-difference then clamp ------------------ *)

let branchy_func =
  let a = 0 and b = 1 and d = 2 and res = 3 in
  { C.Ir.name = "clampdiff";
    params = [ a; b ];
    results = [ res ];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Bin (Opcode.Isub, C.Ir.V a, C.Ir.V b, d);
              C.Ir.Cmp (Opcode.Lt, C.Ir.V d, C.Ir.C 0l, 0) ];
          term = C.Ir.Branch (0, "neg", "pos") };
        { C.Ir.label = "neg";
          body = [ C.Ir.Un (Opcode.Ineg, C.Ir.V d, d) ];
          term = C.Ir.Jump "pos" };
        { C.Ir.label = "pos";
          body = [ C.Ir.Cmp (Opcode.Gt, C.Ir.V d, C.Ir.C 100l, 1) ];
          term = C.Ir.Branch (1, "clamp", "done") };
        { C.Ir.label = "clamp";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C 100l, d) ];
          term = C.Ir.Jump "done" };
        { C.Ir.label = "done";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.V d, res) ];
          term = C.Ir.Return } ] }

let test_branchy_compile () =
  List.iter
    (fun (a, b) ->
      let args = [ Value.of_int a; Value.of_int b ] in
      let expected = interp_results branchy_func ~args ~mem:[] in
      let compiled = compile_ok ~width:4 branchy_func in
      let got, _ = run_compiled ~sim:`Vliw compiled ~args ~mem:[] in
      Alcotest.(check (list value))
        (Printf.sprintf "clampdiff %d %d" a b)
        expected got)
    [ (10, 3); (3, 10); (500, 1); (1, 500); (7, 7) ]

(* --- A loop: sum of squares ----------------------------------------- *)

let loop_func =
  let n = 0 and i = 1 and acc = 2 and sq = 3 in
  { C.Ir.name = "sumsq";
    params = [ n ];
    results = [ acc ];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Un (Opcode.Mov, C.Ir.C 0l, i); C.Ir.Un (Opcode.Mov, C.Ir.C 0l, acc) ];
          term = C.Ir.Jump "loop" };
        { C.Ir.label = "loop";
          body =
            [ C.Ir.Bin (Opcode.Imult, C.Ir.V i, C.Ir.V i, sq);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V acc, C.Ir.V sq, acc);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V i, C.Ir.C 1l, i);
              C.Ir.Cmp (Opcode.Lt, C.Ir.V i, C.Ir.V n, 0) ];
          term = C.Ir.Branch (0, "loop", "exit") };
        { C.Ir.label = "exit"; body = []; term = C.Ir.Return } ] }

let test_loop_compile () =
  List.iter
    (fun n ->
      let args = [ Value.of_int n ] in
      let expected = interp_results loop_func ~args ~mem:[] in
      let compiled = compile_ok ~width:4 loop_func in
      let got, _ = run_compiled ~sim:`Ximd compiled ~args ~mem:[] in
      Alcotest.(check (list value)) (Printf.sprintf "sumsq %d" n) expected got)
    [ 1; 2; 10; 33 ]

(* --- Memory: compiled stores land where the interpreter says -------- *)

let store_func =
  let base = 0 and v0 = 1 and v1 = 2 in
  { C.Ir.name = "stores";
    params = [ base ];
    results = [];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Load (C.Ir.V base, C.Ir.C 0l, v0);
              C.Ir.Load (C.Ir.V base, C.Ir.C 1l, v1);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V v0, C.Ir.V v1, v0);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V base, C.Ir.C 2l, v1);
              C.Ir.Store (C.Ir.V v0, C.Ir.V v1) ];
          term = C.Ir.Return } ] }

let test_store_compile () =
  let mem = [ (100, Value.of_int 41); (101, Value.of_int 1) ] in
  let args = [ Value.of_int 100 ] in
  let compiled = compile_ok ~width:2 store_func in
  let _, state = run_compiled ~sim:`Vliw compiled ~args ~mem in
  Alcotest.check value "M[102]" (Value.of_int 42)
    (Ximd_core.State.mem_get state 102)

(* --- List scheduler invariants -------------------------------------- *)

let test_schedule_verify () =
  let ops = Array.of_list (List.concat_map (fun b -> b.C.Ir.body)
                             tproc_func.blocks) in
  List.iter
    (fun width ->
      let sched = C.Listsched.schedule ~width ops in
      match C.Listsched.verify ops sched with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "width %d: %s" width msg)
    [ 1; 2; 3; 4; 8 ]

let test_schedule_width1_is_sequential () =
  let ops = Array.of_list (List.concat_map (fun b -> b.C.Ir.body)
                             tproc_func.blocks) in
  let sched = C.Listsched.schedule ~width:1 ops in
  if C.Listsched.length sched < Array.length ops then
    Alcotest.fail "width-1 schedule shorter than op count"

(* --- Register allocation -------------------------------------------- *)

let test_linear_scan_reuses () =
  (* A long chain of dead temporaries: linear scan should need far fewer
     registers than the trivial allocator. *)
  let n = 40 in
  let body =
    List.concat
      (List.init n (fun i ->
         [ C.Ir.Bin (Opcode.Iadd, C.Ir.V (2 * i), C.Ir.C 1l, (2 * i) + 1);
           C.Ir.Bin (Opcode.Iadd, C.Ir.V ((2 * i) + 1), C.Ir.C 1l, (2 * i) + 2) ]))
  in
  let func =
    { C.Ir.name = "chain"; params = [ 0 ]; results = [ 2 * n ];
      blocks = [ { C.Ir.label = "entry"; body; term = C.Ir.Return } ] }
  in
  let trivial_used =
    match C.Regalloc.trivial func with
    | Ok a -> a.used
    | Error msg -> Alcotest.fail msg
  in
  let ops = Array.of_list body in
  let sched = C.Listsched.schedule ~width:4 ops in
  let params = [ (0, Reg.make 0) ] in
  match C.Regalloc.linear_scan ops sched ~params ~results:[ 2 * n ] with
  | Error msg -> Alcotest.fail msg
  | Ok assignment ->
    if assignment.used > 10 then
      Alcotest.failf "linear scan used %d registers for a 2-deep chain"
        assignment.used;
    if assignment.used >= trivial_used then
      Alcotest.fail "linear scan did not beat the trivial allocator"

(* --- Pipeliner ------------------------------------------------------- *)

let dotprod_body =
  (* acc += M[a+i] * M[b+i]; i++  — one accumulator recurrence. *)
  [| C.Ir.Load (C.Ir.V 0, C.Ir.V 2, 10);
     C.Ir.Load (C.Ir.V 1, C.Ir.V 2, 11);
     C.Ir.Bin (Opcode.Imult, C.Ir.V 10, C.Ir.V 11, 12);
     C.Ir.Bin (Opcode.Iadd, C.Ir.V 3, C.Ir.V 12, 3);
     C.Ir.Bin (Opcode.Iadd, C.Ir.V 2, C.Ir.C 1l, 2) |]

let test_pipeliner_dotprod () =
  List.iter
    (fun width ->
      match C.Pipeliner.schedule ~width dotprod_body with
      | Error msg -> Alcotest.failf "width %d: %s" width msg
      | Ok sched -> (
        match C.Pipeliner.verify ~width dotprod_body sched with
        | Error msg -> Alcotest.failf "width %d verify: %s" width msg
        | Ok () ->
          if width >= 5 && sched.ii > 1 then
            Alcotest.failf
              "width %d: dot product should reach II=1, got %d" width
              sched.ii))
    [ 1; 2; 4; 5; 8 ]

let test_pipeliner_recurrence () =
  (* x := z * (y - x) — loop-carried chain of length 2 forces II >= 2
     regardless of width. *)
  let body =
    [| C.Ir.Bin (Opcode.Isub, C.Ir.V 1, C.Ir.V 0, 2);
       C.Ir.Bin (Opcode.Imult, C.Ir.V 3, C.Ir.V 2, 0) |]
  in
  match C.Pipeliner.schedule ~width:8 body with
  | Error msg -> Alcotest.fail msg
  | Ok sched ->
    if sched.ii < 2 then
      Alcotest.failf "recurrence ignored: II = %d" sched.ii

let test_pipeliner_beats_sequential () =
  match C.Pipeliner.schedule ~width:8 dotprod_body with
  | Error msg -> Alcotest.fail msg
  | Ok sched ->
    if C.Pipeliner.speedup_bound dotprod_body sched <= 1.0 then
      Alcotest.fail "pipelining should beat the sequential schedule"

(* --- Trace scheduler -------------------------------------------------- *)

(* A join-free pipeline of guarded stages: the trace covers all three
   hot blocks because the cold exits return separately (no side
   entrances). *)
let guarded_func =
  let x = 0 and t1 = 1 and t2 = 2 and t3 = 3 and t4 = 4 and res = 5 in
  { C.Ir.name = "guarded";
    params = [ x ];
    results = [ res ];
    blocks =
      [ { C.Ir.label = "b1";
          body =
            [ C.Ir.Bin (Opcode.Imult, C.Ir.V x, C.Ir.C 3l, t1);
              C.Ir.Bin (Opcode.Iadd, C.Ir.V x, C.Ir.C 7l, t2);
              C.Ir.Cmp (Opcode.Lt, C.Ir.V t1, C.Ir.C 1000l, 0) ];
          term = C.Ir.Branch (0, "b2", "cold1") };
        { C.Ir.label = "b2";
          body =
            [ C.Ir.Bin (Opcode.Iadd, C.Ir.V t1, C.Ir.V t2, t3);
              C.Ir.Bin (Opcode.Imult, C.Ir.V t1, C.Ir.C 2l, t4);
              C.Ir.Cmp (Opcode.Gt, C.Ir.V t2, C.Ir.C 50l, 1) ];
          term = C.Ir.Branch (1, "b3", "cold2") };
        { C.Ir.label = "b3";
          body = [ C.Ir.Bin (Opcode.Iadd, C.Ir.V t3, C.Ir.V t4, res) ];
          term = C.Ir.Return };
        { C.Ir.label = "cold1";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C 1l, res) ];
          term = C.Ir.Return };
        { C.Ir.label = "cold2";
          body = [ C.Ir.Un (Opcode.Mov, C.Ir.C 2l, res) ];
          term = C.Ir.Return } ] }

let test_trace_selection () =
  (* clampdiff: "pos" is a join (predecessors entry and neg), so the
     side-entrance restriction stops the trace after "neg". *)
  Alcotest.(check (list string)) "clampdiff trace" [ "entry"; "neg" ]
    (C.Tracesched.select_trace branchy_func);
  (* The guarded pipeline has no joins: the full hot path is traced. *)
  Alcotest.(check (list string)) "guarded trace" [ "b1"; "b2"; "b3" ]
    (C.Tracesched.select_trace guarded_func);
  (* Cold probabilities steer the trace off the then-path. *)
  Alcotest.(check (list string)) "cold trace" [ "b1"; "cold1" ]
    (C.Tracesched.select_trace ~prob:[ ("b1", 0.1) ] guarded_func)

let test_trace_compile_both_paths () =
  List.iter
    (fun (a, b) ->
      let args = [ Value.of_int a; Value.of_int b ] in
      let expected = interp_results branchy_func ~args ~mem:[] in
      match C.Tracesched.compile ~width:4 branchy_func with
      | Error errors -> Alcotest.failf "trace: %s" (String.concat "; " errors)
      | Ok result ->
        let got, _ = run_compiled ~sim:`Vliw result.compiled ~args ~mem:[] in
        Alcotest.(check (list value))
          (Printf.sprintf "traced clampdiff %d %d" a b)
          expected got)
    [ (10, 3); (3, 10); (500, 1); (1, 500); (7, 7) ]

let test_trace_guarded_all_paths () =
  List.iter
    (fun x ->
      let args = [ Value.of_int x ] in
      let expected = interp_results guarded_func ~args ~mem:[] in
      match C.Tracesched.compile ~width:4 guarded_func with
      | Error errors -> Alcotest.failf "trace: %s" (String.concat "; " errors)
      | Ok result ->
        let got, _ = run_compiled ~sim:`Ximd result.compiled ~args ~mem:[] in
        Alcotest.(check (list value)) (Printf.sprintf "guarded %d" x)
          expected got)
    [ 50; 10; 400; 44; 333 ]

let test_trace_beats_blockwise () =
  (* On the join-free pipeline, scheduling the whole trace as one region
     must save rows over block-at-a-time compilation. *)
  match C.Tracesched.compile ~width:4 guarded_func with
  | Error errors -> Alcotest.failf "trace: %s" (String.concat "; " errors)
  | Ok result ->
    Alcotest.(check (list string)) "trace" [ "b1"; "b2"; "b3" ] result.trace;
    if result.region_rows >= result.blockwise_rows then
      Alcotest.failf "region %d rows, blockwise %d: no win"
        result.region_rows result.blockwise_rows

let test_trace_no_much_longer_than_blockwise () =
  (* Even on an unfavourable trace, the region costs at most one extra
     bookkeeping row for the final terminator. *)
  match C.Tracesched.compile ~width:4 branchy_func with
  | Error errors -> Alcotest.failf "trace: %s" (String.concat "; " errors)
  | Ok result ->
    if result.region_rows > result.blockwise_rows + 1 then
      Alcotest.failf "region %d rows > blockwise %d + 1" result.region_rows
        result.blockwise_rows

(* --- Tiles and packing ----------------------------------------------- *)

let test_tiles_pareto () =
  match C.Tile.generate ~widths:[ 1; 2; 4; 8 ] tproc_func with
  | Error errors -> Alcotest.failf "tiles: %s" (String.concat "; " errors)
  | Ok tiles ->
    Alcotest.(check int) "four tiles" 4 (List.length tiles);
    let best = C.Tile.pareto tiles in
    if best = [] then Alcotest.fail "pareto emptied the menu";
    (* Every kept tile is genuinely non-dominated. *)
    List.iter
      (fun (a : C.Tile.t) ->
        List.iter
          (fun (b : C.Tile.t) ->
            if
              a != b && b.width <= a.width && b.length <= a.length
              && (b.width < a.width || b.length < a.length)
            then Alcotest.fail "dominated tile kept")
          best)
      best

let demo_menus () =
  (* Six threads as in Figure 13: reuse tproc at different widths as
     stand-ins with distinct shapes. *)
  match C.Tile.generate ~widths:[ 1; 2; 4 ] tproc_func with
  | Error errors -> Alcotest.failf "tiles: %s" (String.concat "; " errors)
  | Ok tiles ->
    List.init 6 (fun i ->
      (Printf.sprintf "t%d" i, C.Tile.pareto tiles))

let test_pack_density () =
  let menus = demo_menus () in
  match C.Packing.pack_density ~n_fus:8 menus with
  | Error msg -> Alcotest.fail msg
  | Ok packing -> (
    match C.Packing.valid packing with
    | Error msg -> Alcotest.fail msg
    | Ok () ->
      if packing.height < packing.lower_bound then
        Alcotest.fail "height below lower bound (packing impossible)")

let test_pack_time () =
  let menus = demo_menus () in
  let deps = [ ("t0", "t2"); ("t1", "t2"); ("t2", "t5") ] in
  match C.Packing.pack_time ~n_fus:8 ~deps menus with
  | Error msg -> Alcotest.fail msg
  | Ok packing -> (
    match C.Packing.valid packing with
    | Error msg -> Alcotest.fail msg
    | Ok () ->
      if packing.height < packing.lower_bound then
        Alcotest.fail "makespan below lower bound";
      (* Dependencies respected. *)
      let placed name =
        List.find
          (fun (p : C.Packing.placement) -> p.thread = name)
          packing.placements
      in
      List.iter
        (fun (before, after) ->
          let b = placed before and a = placed after in
          if a.y < b.y + b.tile.length then
            Alcotest.failf "%s starts before %s finishes" after before)
        deps)

let test_pack_cycle_detected () =
  let menus = demo_menus () in
  let deps = [ ("t0", "t1"); ("t1", "t0") ] in
  match C.Packing.pack_time ~n_fus:8 ~deps menus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle not detected"

let suite =
  [ ( "compiler",
      [ Alcotest.test_case "tproc compiles at all widths" `Quick
          test_tproc_compile;
        Alcotest.test_case "wider is never slower" `Quick test_width_speed;
        Alcotest.test_case "branchy function" `Quick test_branchy_compile;
        Alcotest.test_case "loop function" `Quick test_loop_compile;
        Alcotest.test_case "stores" `Quick test_store_compile;
        Alcotest.test_case "schedule verify" `Quick test_schedule_verify;
        Alcotest.test_case "width-1 sequential" `Quick
          test_schedule_width1_is_sequential;
        Alcotest.test_case "linear scan reuses registers" `Quick
          test_linear_scan_reuses ] );
    ( "pipeliner",
      [ Alcotest.test_case "dot product schedules" `Quick
          test_pipeliner_dotprod;
        Alcotest.test_case "recurrence bounds II" `Quick
          test_pipeliner_recurrence;
        Alcotest.test_case "beats sequential" `Quick
          test_pipeliner_beats_sequential ] );
    ( "tracesched",
      [ Alcotest.test_case "trace selection" `Quick test_trace_selection;
        Alcotest.test_case "both paths correct" `Quick
          test_trace_compile_both_paths;
        Alcotest.test_case "guarded pipeline: all paths" `Quick
          test_trace_guarded_all_paths;
        Alcotest.test_case "region beats blockwise" `Quick
          test_trace_beats_blockwise;
        Alcotest.test_case "region within blockwise + 1" `Quick
          test_trace_no_much_longer_than_blockwise ] );
    ( "packing",
      [ Alcotest.test_case "tiles + pareto" `Quick test_tiles_pareto;
        Alcotest.test_case "density packing valid" `Quick test_pack_density;
        Alcotest.test_case "time packing valid" `Quick test_pack_time;
        Alcotest.test_case "cycle detected" `Quick test_pack_cycle_detected ]
    ) ]
