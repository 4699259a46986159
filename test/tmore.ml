(* Additional targeted coverage: liveness, interpreter edges, trace
   scheduler speculation safety, encode geometry. *)

open Ximd_isa
module C = Ximd_compiler
module Op = Opcode

let value = Alcotest.testable Value.pp Value.equal

(* --- Liveness --------------------------------------------------------- *)

let diamond =
  (* entry: t = a+1; p = t < 10 ? -> left : right
     left:  u = t*2     -> join
     right: u = a*3     -> join   (t dead here)
     join:  return u *)
  { C.Ir.name = "diamond";
    params = [ 0 ];
    results = [ 2 ];
    blocks =
      [ { C.Ir.label = "entry";
          body =
            [ C.Ir.Bin (Op.Iadd, C.Ir.V 0, C.Ir.C 1l, 1);
              C.Ir.Cmp (Op.Lt, C.Ir.V 1, C.Ir.C 10l, 0) ];
          term = C.Ir.Branch (0, "left", "right") };
        { C.Ir.label = "left";
          body = [ C.Ir.Bin (Op.Imult, C.Ir.V 1, C.Ir.C 2l, 2) ];
          term = C.Ir.Jump "join" };
        { C.Ir.label = "right";
          body = [ C.Ir.Bin (Op.Imult, C.Ir.V 0, C.Ir.C 3l, 2) ];
          term = C.Ir.Jump "join" };
        { C.Ir.label = "join"; body = []; term = C.Ir.Return } ] }

let test_liveness_diamond () =
  let live = C.Liveness.compute diamond in
  let live_in label = C.Liveness.live_in live label in
  (* t (v1) is live into left but not right. *)
  Alcotest.(check bool) "t live into left" true
    (C.Liveness.VSet.mem 1 (live_in "left"));
  Alcotest.(check bool) "t dead into right" false
    (C.Liveness.VSet.mem 1 (live_in "right"));
  (* a (v0) is live into right (used there), not into left. *)
  Alcotest.(check bool) "a live into right" true
    (C.Liveness.VSet.mem 0 (live_in "right"));
  Alcotest.(check bool) "a dead into left" false
    (C.Liveness.VSet.mem 0 (live_in "left"));
  (* the result (v2) is live into join. *)
  Alcotest.(check bool) "u live into join" true
    (C.Liveness.VSet.mem 2 (live_in "join"));
  (* live_out of entry includes both branch environments. *)
  Alcotest.(check bool) "entry live-out has t" true
    (C.Liveness.VSet.mem 1 (C.Liveness.live_out live "entry"))

let test_liveness_loop () =
  (* A while loop keeps its accumulator live around the back edge. *)
  let func =
    { C.Ir.name = "loop";
      params = [ 0 ];
      results = [ 1 ];
      blocks =
        [ { C.Ir.label = "entry"; body = []; term = C.Ir.Jump "head" };
          { C.Ir.label = "head";
            body = [ C.Ir.Cmp (Op.Gt, C.Ir.V 0, C.Ir.C 0l, 0) ];
            term = C.Ir.Branch (0, "body", "exit") };
          { C.Ir.label = "body";
            body =
              [ C.Ir.Bin (Op.Iadd, C.Ir.V 1, C.Ir.V 0, 1);
                C.Ir.Bin (Op.Isub, C.Ir.V 0, C.Ir.C 1l, 0) ];
            term = C.Ir.Jump "head" };
          { C.Ir.label = "exit"; body = []; term = C.Ir.Return } ] }
  in
  let live = C.Liveness.compute func in
  Alcotest.(check bool) "acc live around back edge" true
    (C.Liveness.VSet.mem 1 (C.Liveness.live_in live "head"))

(* --- Interp edges ------------------------------------------------------ *)

let test_interp_div_by_zero () =
  let func =
    { C.Ir.name = "d"; params = [ 0 ]; results = [ 1 ];
      blocks =
        [ { C.Ir.label = "entry";
            body = [ C.Ir.Bin (Op.Idiv, C.Ir.C 1l, C.Ir.V 0, 1) ];
            term = C.Ir.Return } ] }
  in
  match C.Interp.run func ~args:[ Value.zero ] ~mem:[] with
  | Error msg ->
    Alcotest.(check bool) "mentions division" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "division by zero must error"

let test_interp_step_budget () =
  let func =
    { C.Ir.name = "spin"; params = []; results = [];
      blocks =
        [ { C.Ir.label = "entry";
            body = [ C.Ir.Bin (Op.Iadd, C.Ir.C 0l, C.Ir.C 0l, 0) ];
            term = C.Ir.Jump "entry" } ] }
  in
  match C.Interp.run ~max_steps:100 func ~args:[] ~mem:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infinite loop must exhaust the budget"

let test_interp_arg_mismatch () =
  let func =
    { C.Ir.name = "f"; params = [ 0; 1 ]; results = [];
      blocks = [ { C.Ir.label = "entry"; body = []; term = C.Ir.Return } ] }
  in
  match C.Interp.run func ~args:[ Value.zero ] ~mem:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "argument count mismatch must error"

(* --- Trace scheduler: speculation safety -------------------------------- *)

let store_after_exit =
  (* hot path: entry -> hot (which stores) ; cold path returns without
     storing.  The store must never move above entry's branch. *)
  { C.Ir.name = "guarded_store";
    params = [ 0 ];
    results = [ 1 ];
    blocks =
      [ { C.Ir.label = "entry";
          body = [ C.Ir.Cmp (Op.Gt, C.Ir.V 0, C.Ir.C 0l, 0) ];
          term = C.Ir.Branch (0, "hot", "cold") };
        { C.Ir.label = "hot";
          body =
            [ C.Ir.Store (C.Ir.C 77l, C.Ir.C 500l);
              C.Ir.Un (Op.Mov, C.Ir.C 1l, 1) ];
          term = C.Ir.Return };
        { C.Ir.label = "cold";
          body = [ C.Ir.Un (Op.Mov, C.Ir.C 2l, 1) ];
          term = C.Ir.Return } ] }

let test_trace_store_not_speculated () =
  match C.Tracesched.compile ~width:4 store_after_exit with
  | Error errors -> Alcotest.failf "%s" (String.concat "; " errors)
  | Ok result ->
    Alcotest.(check (list string)) "trace" [ "entry"; "hot" ] result.trace;
    (* Drive the COLD path; memory must stay untouched. *)
    let config = Ximd_core.Config.make ~n_fus:4 () in
    let session =
      Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
        result.compiled.program
    in
    let setup =
      match C.Codegen.bind_args result.compiled [ Value.of_int (-5) ] with
      | Ok setup -> setup
      | Error msg -> Alcotest.fail msg
    in
    let state = Ximd_core.Session.state session in
    (match Ximd_core.Session.run ~setup session with
     | Ximd_core.Run.Halted _ -> ()
     | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
       Alcotest.fail "hung");
    Alcotest.check value "no speculative store" Value.zero
      (Ximd_core.State.mem_get state 500);
    Alcotest.(check (list value)) "cold result" [ Value.of_int 2 ]
      (C.Codegen.results result.compiled state)

(* --- Encode geometry ----------------------------------------------------- *)

let test_encode_geometry () =
  Alcotest.(check int) "192-bit parcels" 192 Encode.bits_per_parcel;
  Alcotest.(check int) "16-bit addresses" 0xffff Encode.max_address;
  (* An 8-FU instruction is 1536 bits = 192 bytes. *)
  let program = (Ximd_workloads.Livermore.loop12 ()).ximd.program in
  let image = Ximd_core.Program.encode program in
  Alcotest.(check int) "image size"
    (16 + (Ximd_core.Program.length program * 8 * 24))
    (Bytes.length image)

(* --- Pretty printers ------------------------------------------------------ *)

let test_ir_printers () =
  let rendered = Format.asprintf "%a" C.Ir.pp_func diamond in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (String.split_on_char '\n' rendered
         |> List.exists (fun line ->
              let ln = String.length needle and ll = String.length line in
              let rec find i =
                i + ln <= ll && (String.sub line i ln = needle || find (i + 1))
              in
              find 0)))
    [ "func diamond"; "entry:"; "branch p0 ? left : right"; "return" ]

let test_ddg_pp_smoke () =
  let ops =
    [| C.Ir.Bin (Op.Iadd, C.Ir.V 0, C.Ir.V 1, 2);
       C.Ir.Bin (Op.Imult, C.Ir.V 2, C.Ir.V 0, 3) |]
  in
  let g = C.Ddg.build ops in
  let rendered = Format.asprintf "%a" C.Ddg.pp g in
  Alcotest.(check bool) "mentions flow edge" true
    (String.length rendered > 10);
  Alcotest.(check int) "critical path" 1 (C.Ddg.critical_path g)

let suite =
  [ ( "more",
      [ Alcotest.test_case "liveness diamond" `Quick test_liveness_diamond;
        Alcotest.test_case "liveness loop" `Quick test_liveness_loop;
        Alcotest.test_case "interp div by zero" `Quick
          test_interp_div_by_zero;
        Alcotest.test_case "interp step budget" `Quick
          test_interp_step_budget;
        Alcotest.test_case "interp arg mismatch" `Quick
          test_interp_arg_mismatch;
        Alcotest.test_case "trace store not speculated" `Quick
          test_trace_store_not_speculated;
        Alcotest.test_case "encode geometry" `Quick test_encode_geometry;
        Alcotest.test_case "ir printers" `Quick test_ir_printers;
        Alcotest.test_case "ddg pp" `Quick test_ddg_pp_smoke ] ) ]
