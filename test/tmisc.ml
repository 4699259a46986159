(* Small units: tracer formatting, statistics accounting, hazard and
   config printers, run outcomes. *)

open Ximd_isa
module B = Ximd_asm.Builder

let test_tracer_cc_string () =
  Alcotest.(check string) "mixed" "TFX"
    (Ximd_core.Tracer.cc_string [| Some true; Some false; None |]);
  Alcotest.(check string) "empty" ""
    (Ximd_core.Tracer.cc_string [||])

let test_tracer_rows_order () =
  let t = B.create ~n_fus:1 in
  B.row t [];
  B.row t [];
  B.halt_row t;
  let program = B.build t in
  let config = Ximd_core.Config.make ~n_fus:1 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  let tracer = Ximd_core.Tracer.create () in
  ignore (Ximd_core.Session.run ~tracer session);
  let rows = Ximd_core.Tracer.rows tracer in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  List.iteri
    (fun i (row : Ximd_core.Tracer.row) ->
      Alcotest.(check int) "cycle order" i row.cycle)
    rows;
  Alcotest.(check int) "length" 3 (Ximd_core.Tracer.length tracer)

(* A bounded tracer keeps exactly the unbounded trace's last [limit]
   rows, counts the rest as dropped, and costs no more minor words per
   cycle than an unbounded one (dropping the oldest row is O(1)). *)
let test_tracer_limit_keeps_tail () =
  let data = Array.init 2000 (fun i -> ((i * 7919) mod 20011) - 10005) in
  let variant = (Ximd_workloads.Minmax.make ~data ()).ximd in
  let session =
    Ximd_core.Session.create ~config:variant.config
      ~model:Ximd_core.Engine.Per_fu variant.program
  in
  let traced tracer =
    let before = Gc.minor_words () in
    let outcome =
      Ximd_core.Session.run ~tracer ~setup:variant.setup session
    in
    (Ximd_core.Run.cycles outcome, Gc.minor_words () -. before)
  in
  ignore (traced (Ximd_core.Tracer.create ()));
  let full = Ximd_core.Tracer.create () in
  let cycles, full_words = traced full in
  let limit = 64 in
  let tail = Ximd_core.Tracer.create ~limit () in
  let _, tail_words = traced tail in
  let render t =
    List.map (Format.asprintf "%a" Ximd_core.Tracer.pp_row)
      (Ximd_core.Tracer.rows t)
  in
  Alcotest.(check int) "one row per cycle" cycles
    (Ximd_core.Tracer.length full);
  Alcotest.(check (list string)) "the last rows"
    (List.filteri (fun i _ -> i >= cycles - limit) (render full))
    (render tail);
  Alcotest.(check int) "dropped" (cycles - limit)
    (Ximd_core.Tracer.dropped tail);
  if tail_words > full_words then
    Alcotest.failf "bounded tracer: %.1f minor words per cycle, unbounded %.1f"
      (tail_words /. float_of_int cycles)
      (full_words /. float_of_int cycles)

let test_figure10_render_contains () =
  let tracer = Ximd_core.Tracer.create () in
  ignore
    (Ximd_workloads.Workload.run ~tracer
       (Ximd_workloads.Minmax.paper_variant ()));
  let rendered =
    Format.asprintf "%a"
      (Ximd_core.Tracer.pp_figure10
         ~comments:Ximd_workloads.Minmax.figure10_comments)
      tracer
  in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun line ->
               String.length line >= String.length needle
               &&
               let rec find i =
                 i + String.length needle <= String.length line
                 && (String.sub line i (String.length needle) = needle
                     || find (i + 1))
               in
               find 0)
             (String.split_on_char '\n' rendered))
      then Alcotest.failf "missing %S in rendering" needle)
    [ "Cycle 0"; "TTFX"; "{0,1}{2}{3}"; "Update min & max"; "Finished" ]

let test_stats_accounting () =
  let t = B.create ~n_fus:2 in
  let r = B.reg t "r" in
  B.row t [ B.d (B.iadd (B.imm 1) (B.imm 2) r); B.d (B.fadd (B.imm 0) (B.imm 0) r) ];
  B.halt_row t;
  let program = B.build t in
  let config = Ximd_core.Config.make ~n_fus:2 ~hazard_policy:Ximd_machine.Hazard.Record () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  ignore (Ximd_core.Session.run session);
  let state = Ximd_core.Session.state session in
  let s = state.stats in
  Alcotest.(check int) "cycles" 2 s.cycles;
  Alcotest.(check int) "data ops" 2 s.data_ops;
  Alcotest.(check int) "int ops" 1 s.int_ops;
  Alcotest.(check int) "float ops" 1 s.float_ops;
  Alcotest.(check int) "nops (halt row)" 2 s.nops;
  Alcotest.(check (float 0.001)) "utilisation" 0.5
    (Ximd_core.Stats.utilisation s ~n_fus:2);
  (* MIPS at 85 ns: 2 ops / (2 * 85ns). *)
  Alcotest.(check (float 0.5)) "mips" 11.76
    (Ximd_core.Stats.mips s ~cycle_ns:85.0);
  Alcotest.(check (float 0.05)) "peak" 94.12
    (Ximd_core.Stats.peak_mips ~n_fus:8 ~cycle_ns:85.0)

let test_hazard_printers () =
  let checks =
    [ (Ximd_machine.Hazard.Multiple_reg_write
         { reg = Reg.make 5; fus = [ 1; 2 ] },
       "multiple writes to r5 by FUs 1,2");
      (Ximd_machine.Hazard.Div_by_zero { fu = 3 }, "FU3 divided by zero");
      (Ximd_machine.Hazard.Undefined_cc { cc = 2; fu = 0 },
       "FU0 branched on undefined cc2") ]
  in
  List.iter
    (fun (hazard, expected) ->
      Alcotest.(check string) expected expected
        (Ximd_machine.Hazard.to_string hazard))
    checks

let test_run_outcomes () =
  Alcotest.(check int) "halted cycles" 7
    (Ximd_core.Run.cycles (Ximd_core.Run.Halted { cycles = 7 }));
  Alcotest.(check bool) "halted completed" true
    (Ximd_core.Run.completed (Ximd_core.Run.Halted { cycles = 7 }));
  Alcotest.(check bool) "fuel not completed" false
    (Ximd_core.Run.completed (Ximd_core.Run.Fuel_exhausted { cycles = 9 }))

let test_config_validation () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (match f () with exception Invalid_argument _ -> true | _ -> false))
    [ (fun () -> Ximd_core.Config.make ~n_fus:0 ());
      (fun () -> Ximd_core.Config.make ~n_fus:17 ());
      (fun () -> Ximd_core.Config.make ~mem_words:0 ());
      (fun () -> Ximd_core.Config.make ~max_cycles:0 ());
      (fun () -> Ximd_core.Config.make ~result_latency:0 ());
      (fun () -> Ximd_core.Config.make ~result_latency:9 ()) ]

let test_program_listing_smoke () =
  let program = (Ximd_workloads.Minmax.make ()).ximd.program in
  let listing = Format.asprintf "%a" Ximd_core.Program.pp_listing program in
  Alcotest.(check bool) "non-empty" true (String.length listing > 200);
  Alcotest.(check bool) "has labels" true
    (String.split_on_char '\n' listing
     |> List.exists (fun l -> l = "l02:"))

(* A barrier condition is evaluated on the hot path every cycle a group
   waits at it, so it must build nothing: no closure over the state or
   the mask, whichever way the test comes out. *)
let test_barrier_holds_allocates_nothing () =
  let t = B.create ~n_fus:4 in
  B.halt_row t;
  let state =
    Ximd_core.State.create ~config:(Ximd_core.Config.make ~n_fus:4 ())
      (B.build t)
  in
  List.iter
    (fun (cond, sync) ->
      Array.fill state.sss 0 4 sync;
      let name =
        Format.asprintf "%a with every SS %a" Cond.pp cond Sync.pp sync
      in
      let expected = Cond.eval cond ~cc:(fun _ -> false) ~ss:(fun _ -> sync) in
      Alcotest.(check bool) name expected (Ximd_core.Exec.holds state cond);
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Ximd_core.Exec.holds state cond))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. words)
    [ (Cond.All_ss 0xf, Sync.Done); (Cond.All_ss 0xf, Sync.Busy);
      (Cond.Any_ss 0xf, Sync.Done); (Cond.Any_ss 0xf, Sync.Busy) ]

(* The engine runs every cycle's data operations from the program's
   decoded image, so the executor must build nothing either: no operand,
   no result, no closure, for any kind of data operation, whether its
   operands are registers (row 0) or immediates (row 1).  The first
   pass grows what a run grows once (a memory page, the output port's
   log); the measured pass reuses it after a reset. *)
let test_image_executor_allocates_nothing () =
  let n = 8 in
  let r = Reg.make and reg = Operand.reg and imm = Operand.imm in
  let row ops =
    Array.of_list (List.map (fun d -> Parcel.make d Control.halt) ops)
  in
  let program =
    Ximd_core.Program.make ~n_fus:n
      [| row
           [ Parcel.Dbin { op = Opcode.Iadd; a = reg 1; b = reg 2; d = r 10 };
             Parcel.Dbin { op = Opcode.Fmult; a = reg 3; b = reg 3; d = r 11 };
             Parcel.Dun { op = Opcode.Itof; a = reg 1; d = r 12 };
             Parcel.Dcmp { op = Opcode.Flt; a = reg 3; b = reg 3 };
             Parcel.Dload { a = reg 1; b = reg 2; d = r 13 };
             Parcel.Dstore { a = reg 2; b = reg 1 };
             Parcel.Din { port = reg 4; d = r 14 };
             Parcel.Dout { a = reg 2; port = reg 4 } ];
         row
           [ Parcel.Dbin { op = Opcode.Isub; a = imm 7; b = imm 3; d = r 20 };
             Parcel.Dbin
               { op = Opcode.Fadd; a = Operand.imm_f 1.5; b = Operand.imm_f 2.5;
                 d = r 21 };
             Parcel.Dun { op = Opcode.Fneg; a = Operand.imm_f 1.0; d = r 22 };
             Parcel.Dcmp { op = Opcode.Lt; a = imm 1; b = imm 2 };
             Parcel.Dload { a = imm 100; b = imm 4; d = r 23 };
             Parcel.Dstore { a = imm 9; b = imm 104 };
             Parcel.Din { port = imm 1; d = r 24 };
             Parcel.Dout { a = imm 5; port = imm 1 } ] |]
  in
  let state =
    Ximd_core.State.create ~config:(Ximd_core.Config.make ~n_fus:n ()) program
  in
  let img = Ximd_core.Program.image program in
  let s = state.scratch in
  let cycles () =
    for i = 1 to 1000 do
      let addr = i land 1 in
      for fu = 0 to n - 1 do
        s.slots.(fu) <- (addr * n) + fu
      done;
      Ximd_core.Exec.exec_cycle state img;
      Ximd_core.Exec.commit_cycle state
    done
  in
  let pass () =
    Ximd_core.State.reset state;
    List.iter
      (fun (i, v) -> Ximd_core.State.set_reg state i v)
      [ (1, Value.of_int 100); (2, Value.of_int 4); (3, Value.of_float 1.5);
        (4, Value.of_int 1) ];
    Array.fill s.record.was_live 0 n true;
    let before = Gc.minor_words () in
    cycles ();
    Gc.minor_words () -. before
  in
  ignore (pass ());
  let words = pass () in
  Alcotest.(check int) "every slot ran" (8 * 1000) state.stats.data_ops;
  Alcotest.(check int) "r10 = r1 + r2" 104
    (Value.to_int (Ximd_core.State.reg state 10));
  Alcotest.(check int) "r20 = 7 - 3" 4
    (Value.to_int (Ximd_core.State.reg state 20));
  Alcotest.(check int) "one output per cycle" 1000
    (List.length (Ximd_machine.Ioport.output state.io ~port:1));
  Alcotest.(check (float 0.)) "minor words" 0. words

(* A state checks every program it takes, with no cache, so validation
   and the models' consistency checks must build nothing on a valid
   program: after one call has built the program's image, each reads 0
   minor words on every suite program. *)
let test_validation_allocates_nothing () =
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  List.iter
    (fun (w : Ximd_workloads.Workload.t) ->
      List.iter
        (fun (v : Ximd_workloads.Workload.variant) ->
          let p = v.program in
          let name check =
            Printf.sprintf "%s (%s): %s minor words" w.name
              (match v.sim with Ximd -> "ximd" | Vliw -> "vliw")
              check
          in
          Alcotest.(check bool) (name "valid") true
            (Ximd_core.Program.validate p v.config = Ok ());
          Alcotest.(check (float 0.)) (name "validate") 0.
            (words (fun () -> Ximd_core.Program.validate p v.config));
          Alcotest.(check (float 0.)) (name "control_consistent") 0.
            (words (fun () -> Ximd_core.Program.control_consistent p));
          Alcotest.(check (float 0.)) (name "bank_consistent") 0.
            (words (fun () -> Ximd_core.Engine.bank_consistent p)))
        (w.ximd :: Option.to_list w.vliw))
    (Ximd_workloads.Suite.all ())

(* The engine's allocation, pinned run by run: every suite workload on
   a warm session with nothing attached, its XIMD coding under xsim and
   its VLIW coding under vsim and t500.  The counts are deterministic
   for one compiler, so this OCaml's pins are exact; under any other
   version they are upper bounds.  A change that allocates less lowers
   its pins. *)
let pinned_words =
  [ ( "5.1.1",
      [ ("tproc", (112, 148, 112));
        ("ll1", (2673, 3837, 2673));
        ("ll3", (951, 1269, 951));
        ("ll5", (2611, 3757, 2611));
        ("ll12", (783, 1083, 783));
        ("matmul", (1153, 1669, 1153));
        ("minmax", (1071, 1318, 892));
        ("bitcount", (3186, 6844, 4576));
        ("classify", (1943, 9292, 6208));
        ("iosync", (998, 2003, 1367)) ] ) ]

let test_engine_words_pinned () =
  let words model (v : Ximd_workloads.Workload.variant) =
    let session =
      Ximd_core.Session.create ~config:v.config ~model v.program
    in
    let run () = ignore (Ximd_core.Session.run ~setup:v.setup session) in
    run ();
    let before = Gc.minor_words () in
    run ();
    int_of_float (Gc.minor_words () -. before)
  in
  let measured =
    List.map
      (fun (w : Ximd_workloads.Workload.t) ->
        let vliw model = Option.fold ~none:(-1) ~some:(words model) w.vliw in
        ( w.name,
          ( words Ximd_core.Engine.Per_fu w.ximd,
            vliw Ximd_core.Engine.Global,
            vliw Ximd_core.Engine.Banked ) ))
      (Ximd_workloads.Suite.all ())
  in
  let exact, pins =
    match List.assoc_opt Sys.ocaml_version pinned_words with
    | Some pins -> (true, pins)
    | None -> (false, List.assoc "5.1.1" pinned_words)
  in
  let table () =
    String.concat "\n"
      (List.map
         (fun (name, (x, v, t)) ->
           Printf.sprintf "  (%S, (%d, %d, %d));" name x v t)
         measured)
  in
  let ok =
    List.length measured = List.length pins
    && List.for_all2
         (fun (name, (x, v, t)) (name', (x', v', t')) ->
           name = name'
           &&
           if exact then (x, v, t) = (x', v', t')
           else x <= x' && v <= v' && t <= t')
         measured pins
  in
  if not ok then
    Alcotest.failf
      "OCaml %s: the engine's minor words per run (xsim, vsim, t500) left \
       their %s pins; measured:\n%s"
      Sys.ocaml_version
      (if exact then "exact" else "5.1.1")
      (table ())

let suite =
  [ ( "misc",
      [ Alcotest.test_case "tracer cc string" `Quick test_tracer_cc_string;
        Alcotest.test_case "tracer rows ordered" `Quick
          test_tracer_rows_order;
        Alcotest.test_case "figure 10 rendering" `Quick
          test_figure10_render_contains;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "hazard printers" `Quick test_hazard_printers;
        Alcotest.test_case "run outcomes" `Quick test_run_outcomes;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "program listing" `Quick
          test_program_listing_smoke;
        Alcotest.test_case "tracer limit keeps the tail" `Quick
          test_tracer_limit_keeps_tail;
        Alcotest.test_case "barrier conditions allocate nothing" `Quick
          test_barrier_holds_allocates_nothing;
        Alcotest.test_case "the image executor allocates nothing" `Quick
          test_image_executor_allocates_nothing;
        Alcotest.test_case "validation allocates nothing" `Quick
          test_validation_allocates_nothing;
        Alcotest.test_case "the engine's words per run are pinned" `Quick
          test_engine_words_pinned ] ) ]
