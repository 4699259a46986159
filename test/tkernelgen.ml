(* Software-pipelined kernel generation: emitted loops must match the
   rolled loop run through the interpreter, for every legal trip count
   and width. *)

open Ximd_isa
module C = Ximd_compiler
module Op = Opcode

let value = Alcotest.testable Value.pp Value.equal

(* Run a compiled pipelined loop.  [inputs] gives live-in values by
   vreg; memory words are (addr, value) pairs. *)
let run_pipelined (k : C.Kernelgen.t) ~trip ~inputs ~mem =
  let config =
    Ximd_core.Config.make ~n_fus:k.width ~max_cycles:100_000 ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu k.program
  in
  let setup (state : Ximd_core.State.t) =
    Ximd_machine.Regfile.set state.regs k.trip_reg (Value.of_int trip);
    List.iter
      (fun (v, value) ->
        match List.assoc_opt v k.live_in_regs with
        | Some reg -> Ximd_machine.Regfile.set state.regs reg value
        | None -> Alcotest.failf "v%d is not live-in" v)
      inputs;
    List.iter (fun (a, v) -> Ximd_core.State.mem_set state a v) mem
  in
  match Ximd_core.Session.run ~setup session with
  | Ximd_core.Run.Halted _ -> Ximd_core.Session.state session
  | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
    Alcotest.fail "pipelined loop hung"

let run_rolled ~trip ~induction ~live_out ~inputs ~mem ops =
  let func = C.Kernelgen.rolled_reference ~trip ~induction ~live_out ops in
  let args =
    List.map
      (fun v ->
        match List.assoc_opt v inputs with
        | Some x -> x
        | None -> Value.zero)
      func.params
  in
  match C.Interp.run func ~args ~mem with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "rolled reference: %s" msg

(* Compare pipelined vs rolled on live-outs and a memory window. *)
let check_loop ?(mem = []) ?(mem_window = []) ~ops ~induction ~live_out
    ~inputs ~trips ~widths () =
  List.iter
    (fun width ->
      match C.Kernelgen.compile ~width ~live_out ops with
      | Error msg -> Alcotest.failf "compile w=%d: %s" width msg
      | Ok k ->
        List.iter
          (fun trip ->
            if
              trip >= k.min_trip
              && (trip - (k.stages - 1)) mod k.unroll = 0
            then begin
              let trip_vreg = 99 in
              let state =
                run_pipelined k ~trip ~inputs ~mem
              in
              let rolled =
                run_rolled ~trip:trip_vreg ~induction ~live_out
                  ~inputs:((trip_vreg, Value.of_int trip) :: inputs)
                  ~mem ops
              in
              List.iteri
                (fun i v ->
                  let reg = List.assoc v k.live_out_regs in
                  let got = Ximd_machine.Regfile.read state.regs reg in
                  let expected = List.nth rolled.results i in
                  Alcotest.check value
                    (Printf.sprintf "w=%d trip=%d v%d" width trip v)
                    expected got)
                live_out;
              List.iter
                (fun addr ->
                  let expected =
                    match Hashtbl.find_opt rolled.mem addr with
                    | Some v -> v
                    | None -> Value.zero
                  in
                  Alcotest.check value
                    (Printf.sprintf "w=%d trip=%d M[%d]" width trip addr)
                    expected
                    (Ximd_core.State.mem_get state addr))
                mem_window
            end)
          trips)
    widths

(* --- dot product: acc += M[400+i] * M[500+i]; i++ ------------------- *)

let dot_ops =
  [| C.Ir.Load (C.Ir.C 400l, C.Ir.V 1, 10);
     C.Ir.Load (C.Ir.C 500l, C.Ir.V 1, 11);
     C.Ir.Bin (Op.Imult, C.Ir.V 10, C.Ir.V 11, 12);
     C.Ir.Bin (Op.Iadd, C.Ir.V 2, C.Ir.V 12, 2);
     C.Ir.Bin (Op.Iadd, C.Ir.V 1, C.Ir.C 1l, 1) |]

let dot_mem =
  List.concat
    (List.init 40 (fun i ->
       [ (400 + i, Value.of_int (i + 1)); (500 + i, Value.of_int (2 * i - 3)) ]))

let test_dot_product () =
  check_loop ~ops:dot_ops ~induction:1 ~live_out:[ 2 ]
    ~inputs:[ (1, Value.zero); (2, Value.zero) ]
    ~mem:dot_mem
    ~trips:[ 4; 5; 6; 8; 12; 16; 20; 32 ]
    ~widths:[ 2; 4; 8 ] ()

let test_dot_live_in () =
  (* live_in detects the induction variable and the accumulator. *)
  Alcotest.(check (list int)) "live in" [ 1; 2 ]
    (List.sort compare (C.Kernelgen.live_in dot_ops))

let test_dot_reaches_low_ii () =
  match C.Kernelgen.compile ~width:8 ~live_out:[ 2 ] dot_ops with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
    if k.ii > 1 then Alcotest.failf "II = %d at width 8" k.ii;
    if k.unroll < 2 then
      Alcotest.fail "II=1 with cross-row lifetimes requires rotation"

(* --- first difference with stores: M[600+i] = M[700+i+1] - prev ----- *)

let diff_ops =
  [| C.Ir.Load (C.Ir.C 701l, C.Ir.V 1, 10);        (* y[i+1] *)
     C.Ir.Bin (Op.Isub, C.Ir.V 10, C.Ir.V 11, 12); (* y[i+1] - yprev *)
     C.Ir.Un (Op.Mov, C.Ir.V 10, 11);              (* yprev = y[i+1] *)
     C.Ir.Bin (Op.Iadd, C.Ir.V 1, C.Ir.C 600l, 13);
     C.Ir.Store (C.Ir.V 12, C.Ir.V 13);
     C.Ir.Bin (Op.Iadd, C.Ir.V 1, C.Ir.C 1l, 1) |]

let diff_mem =
  List.init 40 (fun i -> (700 + i, Value.of_int ((i * 7) mod 23)))

let test_first_difference_stores () =
  check_loop ~ops:diff_ops ~induction:1 ~live_out:[ 11 ]
    ~inputs:[ (1, Value.zero); (11, Value.of_int 3) ]
    ~mem:diff_mem
    ~mem_window:(List.init 24 (fun i -> 600 + i))
    ~trips:[ 4; 6; 8; 10; 16; 24 ]
    ~widths:[ 2; 4; 8 ] ()

(* --- recurrence: x = z * (y - x), fixed y z --------------------------- *)

let rec_ops =
  [| C.Ir.Bin (Op.Isub, C.Ir.V 5, C.Ir.V 0, 2);
     C.Ir.Bin (Op.Imult, C.Ir.V 6, C.Ir.V 2, 0);
     C.Ir.Bin (Op.Iadd, C.Ir.V 1, C.Ir.C 1l, 1) |]

let test_recurrence () =
  check_loop ~ops:rec_ops ~induction:1 ~live_out:[ 0 ]
    ~inputs:
      [ (0, Value.of_int 1); (1, Value.zero); (5, Value.of_int 10);
        (6, Value.of_int 3) ]
    ~trips:[ 3; 4; 5; 8; 13; 21 ]
    ~widths:[ 1; 2; 8 ] ()

let test_rejects_compares () =
  let bad = [| C.Ir.Cmp (Op.Lt, C.Ir.V 0, C.Ir.V 1, 0) |] in
  match C.Kernelgen.compile ~width:4 ~live_out:[] bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compare in body accepted"

let test_rejects_bad_live_out () =
  match C.Kernelgen.compile ~width:4 ~live_out:[ 42 ] dot_ops with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "live-out not defined in body accepted"

let test_throughput () =
  (* The pipelined dot product at width 8 must clearly beat the rolled
     loop compiled block-at-a-time. *)
  match C.Kernelgen.compile ~width:8 ~live_out:[ 2 ] dot_ops with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
    let trip = 32 + (k.stages - 1) in
    let trip =
      trip - ((trip - (k.stages - 1)) mod k.unroll)
    in
    let state =
      run_pipelined k ~trip
        ~inputs:[ (1, Value.zero); (2, Value.zero) ]
        ~mem:dot_mem
    in
    let pipelined_cycles = state.cycle in
    (* Rolled: body + cmp + branch row per iteration, ~4 rows. *)
    let rolled_estimate = trip * 4 in
    if pipelined_cycles * 2 > rolled_estimate then
      Alcotest.failf "pipelined %d cycles vs ~%d rolled: not enough overlap"
        pipelined_cycles rolled_estimate

let suite =
  [ ( "kernelgen",
      [ Alcotest.test_case "dot product all trips/widths" `Quick
          test_dot_product;
        Alcotest.test_case "live-in detection" `Quick test_dot_live_in;
        Alcotest.test_case "dot product reaches II=1 with MVE" `Quick
          test_dot_reaches_low_ii;
        Alcotest.test_case "first difference with stores" `Quick
          test_first_difference_stores;
        Alcotest.test_case "recurrence" `Quick test_recurrence;
        Alcotest.test_case "rejects compares" `Quick test_rejects_compares;
        Alcotest.test_case "rejects bad live-out" `Quick
          test_rejects_bad_live_out;
        Alcotest.test_case "throughput beats rolled" `Quick
          test_throughput ] ) ]
