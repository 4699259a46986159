(* Session-reuse and engine-unification tests: State.reset must be
   indistinguishable from a fresh state, Session.run must support
   program swapping, and hazard attribution must agree across the
   sequencing models now that one engine drives all three. *)

open Ximd_isa
module B = Ximd_asm.Builder

(* --- Hazard attribution across sequencing models ----------------------- *)

(* Two fall-through rows under the prototype sequencer: the machine
   walks off the end at address 2.  Control-consistent, so it is a legal
   VLIW program. *)
let falling_program ~n_fus =
  let t = B.create ~n_fus in
  B.row t ~ctl:B.fallthrough [];
  B.row t ~ctl:B.fallthrough [];
  B.build t

let falling_config ~n_fus =
  Ximd_core.Config.make ~n_fus ~sequencer:Ximd_core.Config.Prototype
    ~hazard_policy:Ximd_machine.Hazard.Record ~max_cycles:100 ()

(* The historical vsim reported Fell_off_end with [fu = 0]
   unconditionally.  The unified engine attributes the hazard to the
   sequencing FU — the lowest live member of the single stream — so a
   stuck-halt fault on FU 0 must shift the attribution to FU 1. *)
let test_vsim_fell_off_end_attribution () =
  let program = falling_program ~n_fus:2 in
  let faults =
    Ximd_machine.Fault.create
      [ { at = 0; kind = Ximd_machine.Fault.Stuck_halt; target = 0 } ]
  in
  let session =
    Ximd_core.Session.create ~config:(falling_config ~n_fus:2) ~faults
      ~model:Ximd_core.Engine.Global program
  in
  let outcome = Ximd_core.Session.run session in
  let state = Ximd_core.Session.state session in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome);
  match Ximd_core.State.hazards state with
  | [ { hazard = Ximd_machine.Hazard.Fell_off_end { fu = 1; addr = 2 }; _ } ]
    -> ()
  | [ { hazard = Ximd_machine.Hazard.Fell_off_end { fu; addr }; _ } ] ->
    Alcotest.failf "expected Fell_off_end on FU 1 at 2, got FU %d at %d" fu
      addr
  | hs -> Alcotest.failf "expected one Fell_off_end, got %d events"
            (List.length hs)

(* Fault-free, the sequencing FU of the global stream is FU 0. *)
let test_vsim_fell_off_end_fault_free () =
  let program = falling_program ~n_fus:2 in
  let session =
    Ximd_core.Session.create ~config:(falling_config ~n_fus:2)
      ~model:Ximd_core.Engine.Global program
  in
  let outcome = Ximd_core.Session.run session in
  let state = Ximd_core.Session.state session in
  Alcotest.(check bool) "completed" true (Ximd_core.Run.completed outcome);
  match Ximd_core.State.hazards state with
  | [ { hazard = Ximd_machine.Hazard.Fell_off_end { fu = 0; addr = 2 }; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected one Fell_off_end on FU 0 at address 2"

(* --- Session basics ---------------------------------------------------- *)

let prog_store ~value ~reg =
  let t = B.create ~n_fus:1 in
  B.row t ~ctl:B.halt [ B.d (B.iadd (B.imm value) (B.imm 0) reg) ];
  B.build t

let narrow_config = Ximd_core.Config.make ~n_fus:1 ()

let test_session_program_swap () =
  let r1 = Reg.make 1 and r2 = Reg.make 2 in
  let prog_a = prog_store ~value:41 ~reg:r1 in
  let prog_b = prog_store ~value:7 ~reg:r2 in
  let session =
    Ximd_core.Session.create ~config:narrow_config
      ~model:Ximd_core.Engine.Per_fu prog_a
  in
  let state = Ximd_core.Session.state session in
  let outcome = Ximd_core.Session.run session in
  Alcotest.(check bool) "a completed" true (Ximd_core.Run.completed outcome);
  Alcotest.(check int) "a wrote r1" 41
    (Value.to_int (Ximd_machine.Regfile.read state.regs r1));
  (* Swapping the program rewinds the arenas: r1 must be back to zero
     after running b, which never touches it. *)
  let outcome = Ximd_core.Session.run ~program:prog_b session in
  Alcotest.(check bool) "b completed" true (Ximd_core.Run.completed outcome);
  Alcotest.(check int) "b wrote r2" 7
    (Value.to_int (Ximd_machine.Regfile.read state.regs r2));
  Alcotest.(check int) "r1 rewound" 0
    (Value.to_int (Ximd_machine.Regfile.read state.regs r1))

(* A swapped-in program is validated against the session's fixed
   config, exactly like State.create would. *)
let test_session_swap_validates () =
  let prog_a = prog_store ~value:1 ~reg:(Reg.make 1) in
  let wide =
    let t = B.create ~n_fus:2 in
    B.halt_row t;
    B.build t
  in
  let session =
    Ximd_core.Session.create ~config:narrow_config
      ~model:Ximd_core.Engine.Per_fu prog_a
  in
  match Ximd_core.Session.run ~program:wide session with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for mismatched n_fus"

(* The setup hook runs after the rewind, before the run — so register
   initialisation survives on every iteration, not just the first. *)
let test_session_setup_reapplied () =
  let r1 = Reg.make 1 and r2 = Reg.make 2 in
  let program =
    let t = B.create ~n_fus:1 in
    B.row t ~ctl:B.halt [ B.d (B.iadd (B.rop r1) (B.imm 1) r2) ];
    B.build t
  in
  let session =
    Ximd_core.Session.create ~config:narrow_config
      ~model:Ximd_core.Engine.Per_fu program
  in
  let state = Ximd_core.Session.state session in
  let setup (state : Ximd_core.State.t) =
    Ximd_machine.Regfile.set state.regs r1 (Value.of_int 10)
  in
  for _ = 1 to 3 do
    let outcome = Ximd_core.Session.run ~setup session in
    Alcotest.(check bool) "completed" true
      (Ximd_core.Run.completed outcome);
    Alcotest.(check int) "r2 = r1 + 1" 11
      (Value.to_int (Ximd_machine.Regfile.read state.regs r2))
  done

(* --- Reset indistinguishability (property) ----------------------------- *)

(* Everything a run can surface, rendered to strings so polymorphic
   equality gives a readable counterexample: outcome, statistics, the
   register file, the Figure-10 trace and the hazard log. *)
let snapshot (state : Ximd_core.State.t) outcome tracer =
  let render pp v = Format.asprintf "%a" pp v in
  ( (match outcome with
     | Ok o -> render Ximd_core.Run.pp o
     | Error e -> "raised: " ^ e),
    render Ximd_core.Stats.pp state.stats,
    Array.to_list
      (Array.map (render Value.pp) (Ximd_machine.Regfile.dump state.regs)),
    render (Ximd_core.Tracer.pp_figure10 ?comments:None) tracer,
    List.map (render Ximd_machine.Hazard.pp_event)
      (Ximd_core.State.hazards state) )

let prop_session_reset_indistinguishable =
  QCheck2.Test.make ~count:100
    ~name:"session rerun after reset = fresh-state run"
    Tprops.gen_valid_program (fun program ->
      let n_fus = Ximd_core.Program.n_fus program in
      let config =
        Ximd_core.Config.make ~n_fus ~max_cycles:200
          ~hazard_policy:Ximd_machine.Hazard.Record ()
      in
      let new_session () =
        Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
          program
      in
      let observe session =
        let tracer = Ximd_core.Tracer.create () in
        let outcome =
          try Ok (Ximd_core.Session.run ~tracer session)
          with e -> Error (Printexc.to_string e)
        in
        snapshot (Ximd_core.Session.state session) outcome tracer
      in
      let fresh = observe (new_session ()) in
      let session = new_session () in
      (* Dirty every arena with a throwaway run (it may raise under a
         recorded hazard policy; the rewind must cope either way), then
         rerun: Session.run rewinds first, so the second run must be
         indistinguishable from a brand-new session's first run. *)
      (try ignore (Ximd_core.Session.run session) with _ -> ());
      fresh = observe session)

(* --- The run loop -------------------------------------------------------- *)

(* What a run leaves behind for its stop to be checked against. *)
type observed = {
  ended : (Ximd_core.Run.outcome, exn) result;
  rows : int list;  (** the cycles of the tracer's rows *)
  steps : int;
      (** k, the number of [Engine.step] calls: the sink's "cycles"
          counter, which every executed step bumps once *)
  final_cycle : int;  (** the sink's *)
  state : Ximd_core.State.t;
}

let observe_run ?watchdog ?budget ?poll ~model ~config program =
  let sink =
    Ximd_obs.Sink.create ~n_fus:config.Ximd_core.Config.n_fus
      ~code_len:(Ximd_core.Program.length program) ()
  in
  let session = Ximd_core.Session.create ~config ~obs:sink ~model program in
  let tracer = Ximd_core.Tracer.create () in
  let ended =
    match Ximd_core.Session.run ~tracer ?watchdog ?budget ?poll session with
    | outcome -> Ok outcome
    | exception e -> Error e
  in
  let steps =
    (List.find
       (fun (c : Ximd_obs.Metrics.counter) -> c.c_name = "cycles")
       (Ximd_obs.Metrics.counters (Ximd_obs.Sink.metrics sink)))
      .c_value
  in
  let rows =
    List.map
      (fun (r : Ximd_core.Tracer.row) -> r.cycle)
      (Ximd_core.Tracer.rows tracer)
  in
  { ended;
    rows;
    steps;
    final_cycle = Ximd_obs.Sink.final_cycle sink;
    state = Ximd_core.Session.state session }

(* The loop's contract for a run of k steps: tracer rows for cycles 0
   to k-1 with no gaps; a halt adds only the result pipeline's drain
   (at most latency - 1 cycles), every other stop lands on cycle k; a
   returning run leaves the sink finished at the outcome's cycle. *)
let stop_errors ~latency { ended; rows; steps = k; final_cycle; _ } =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if rows <> List.init k Fun.id then
    fail "tracer rows are not cycles 0..%d (%d rows)" (k - 1)
      (List.length rows);
  (match ended with
   | Error _ -> ()
   | Ok outcome ->
     let cycles = Ximd_core.Run.cycles outcome in
     (match outcome with
      | Ximd_core.Run.Halted _ ->
        if cycles < k || cycles > k + latency - 1 then
          fail "halted at cycle %d after %d steps (latency %d)" cycles k
            latency
      | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Budget_exceeded _
      | Ximd_core.Run.Deadlocked _ ->
        if cycles <> k then fail "stopped at cycle %d after %d steps" cycles k);
     if final_cycle <> cycles then
       fail "sink final cycle %d, outcome cycle %d" final_cycle cycles);
  List.rev !errors

let check_stop ~latency name observed =
  match stop_errors ~latency observed with
  | [] -> ()
  | errors -> Alcotest.failf "%s: %s" name (String.concat "; " errors)

let all_models = Ximd_core.Engine.[ Per_fu; Global; Banked ]

(* Two FUs, control-consistent (so valid under every model): a nop row,
   then a row that writes r1 and halts.  At latency 3 the write is still
   in flight when the machine halts, so the run drains it. *)
let halting_program () =
  let t = B.create ~n_fus:2 in
  B.row t [];
  B.row t ~ctl:B.halt [ B.d (B.mov (B.imm 5) (Reg.make 1)) ];
  B.build t

let spinning_program () =
  let t = B.create ~n_fus:2 in
  B.row t ~ctl:(B.goto B.self) [];
  B.build t

let run_config ?(latency = 1) ?(max_cycles = 10_000) () =
  Ximd_core.Config.make ~n_fus:2 ~result_latency:latency ~max_cycles ()

let test_stop_halt latency () =
  List.iter
    (fun model ->
      let name = Ximd_core.Engine.model_name model in
      let observed =
        observe_run ~model ~config:(run_config ~latency ()) (halting_program ())
      in
      check_stop ~latency name observed;
      Alcotest.(check int) (name ^ ": two steps") 2 observed.steps;
      Alcotest.(check int) (name ^ ": r1 written") 5
        (Value.to_int (Ximd_core.State.reg observed.state 1));
      match observed.ended with
      | Ok (Ximd_core.Run.Halted { cycles }) ->
        Alcotest.(check bool) (name ^ ": drains only at latency > 1")
          (latency > 1) (cycles > observed.steps)
      | _ -> Alcotest.failf "%s: expected a halt" name)
    all_models

(* The spinning program never halts: the fuel, the budget or the
   watchdog stops it, and [check_stop] puts that stop on the cycle of
   its last step. *)
let test_stop_spin ?max_cycles ?budget ?(watched = false) ~stop () =
  List.iter
    (fun model ->
      let name = Ximd_core.Engine.model_name model in
      let watchdog =
        if watched then Some (Ximd_core.Watchdog.create ()) else None
      in
      let observed =
        observe_run ?watchdog ?budget ~model ~config:(run_config ?max_cycles ())
          (spinning_program ())
      in
      check_stop ~latency:1 name observed;
      match observed.ended with
      | Ok outcome when stop outcome -> ()
      | Ok outcome ->
        Alcotest.failf "%s: unexpected outcome %a" name Ximd_core.Run.pp
          outcome
      | Error e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    all_models

exception Deadline

(* A poll that raises on its [nth] call (the first call is at cycle 0,
   then every 512 cycles) stops the run before that cycle's step. *)
let test_stop_poll nth () =
  List.iter
    (fun model ->
      let name = Ximd_core.Engine.model_name model in
      let calls = ref 0 in
      let poll () =
        incr calls;
        if !calls = nth then raise Deadline
      in
      let observed =
        observe_run ~poll ~model ~config:(run_config ()) (spinning_program ())
      in
      check_stop ~latency:1 name observed;
      (match observed.ended with
       | Error Deadline -> ()
       | _ -> Alcotest.failf "%s: the poll's exception must escape" name);
      Alcotest.(check int) (name ^ ": steps before the poll")
        ((nth - 1) * 512) observed.steps)
    all_models

(* Random programs under every applicable model, with or without a cycle
   budget and a watchdog: whichever stop ends the run, the loop keeps
   its contract. *)
let prop_run_loop_contract =
  QCheck2.Test.make ~count:150
    ~name:"run loop: one tracer row per step, stop on the right cycle"
    QCheck2.Gen.(
      triple Ximd_gen.Proggen.case (opt (int_range 1 400)) bool)
    (fun ((case : Ximd_gen.Proggen.case), budget, watched) ->
      let models =
        List.filter_map
          (fun m ->
            Ximd_core.Engine.model_of_name (Ximd_gen.Diff.model_name m))
          (Ximd_gen.Diff.applicable_models case.program)
      in
      List.for_all
        (fun model ->
          let watchdog =
            if watched then Some (Ximd_core.Watchdog.create ()) else None
          in
          let observed =
            observe_run ?watchdog ?budget ~model ~config:case.config
              case.program
          in
          match
            stop_errors ~latency:case.config.result_latency observed
          with
          | [] -> true
          | errors ->
            QCheck2.Test.fail_reportf "%s: %s"
              (Ximd_core.Engine.model_name model)
              (String.concat "; " errors))
        models)

let suite =
  [ ( "session",
      [ Alcotest.test_case "vsim fell-off-end attribution under faults"
          `Quick test_vsim_fell_off_end_attribution;
        Alcotest.test_case "vsim fell-off-end attribution fault-free"
          `Quick test_vsim_fell_off_end_fault_free;
        Alcotest.test_case "program swap rewinds arenas" `Quick
          test_session_program_swap;
        Alcotest.test_case "program swap validates against config" `Quick
          test_session_swap_validates;
        Alcotest.test_case "setup hook reapplied every run" `Quick
          test_session_setup_reapplied;
        QCheck_alcotest.to_alcotest prop_session_reset_indistinguishable;
        Alcotest.test_case "run stops at a halt, latency 1" `Quick
          (test_stop_halt 1);
        Alcotest.test_case "run stops at a halt, latency 3" `Quick
          (test_stop_halt 3);
        Alcotest.test_case "run stops when the fuel is spent" `Quick
          (test_stop_spin ~max_cycles:100 ~stop:(function
            | Ximd_core.Run.Fuel_exhausted { cycles = 100 } -> true
            | _ -> false));
        Alcotest.test_case "run stops when the budget is spent" `Quick
          (test_stop_spin ~budget:37 ~stop:(function
            | Ximd_core.Run.Budget_exceeded { cycles = 37; budget = 37 } ->
              true
            | _ -> false));
        Alcotest.test_case "run stops at a watchdog deadlock" `Quick
          (test_stop_spin ~watched:true ~stop:(function
            | Ximd_core.Run.Deadlocked _ -> true
            | _ -> false));
        Alcotest.test_case "run stops at a poll raising at cycle 0" `Quick
          (test_stop_poll 1);
        Alcotest.test_case "run stops at a poll raising at cycle 512" `Quick
          (test_stop_poll 2);
        QCheck_alcotest.to_alcotest prop_run_loop_contract ] )
  ]
