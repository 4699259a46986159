(* Deadlock watchdog, fault injection, and postmortem diagnostics. *)

open Ximd_isa
module B = Ximd_asm.Builder
module Core = Ximd_core
module M = Ximd_machine
module W = Ximd_workloads

(* --- Programs ---------------------------------------------------------- *)

(* Two FUs, each spinning until the OTHER's sync signal reads DONE while
   driving BUSY itself: the canonical cross-wait deadlock. *)
let cross_wait () =
  let t = B.create ~n_fus:2 in
  B.label t "spin";
  B.row t
    [ B.sp ~ctl:(B.if_ss 1 (B.lbl "fin") (B.lbl "spin")) B.nop;
      B.sp ~ctl:(B.if_ss 0 (B.lbl "fin") (B.lbl "spin")) B.nop ];
  B.label t "fin";
  B.halt_row t;
  B.build t

(* Producer/consumer pair.  The producer computes r0 := 7 then finishes;
   the consumer waits for the producer's DONE, copies r0 to r1, halts.
   [broken = true] models the classic protocol bug: the producer spins
   forever at BUSY instead of halting (a normal halt drives DONE). *)
let producer_consumer ~broken =
  let t = B.create ~n_fus:2 in
  let r0 = B.reg t "v0" and r1 = B.reg t "v1" in
  B.label t "top";
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "pnext")) (B.iadd (B.imm 3) (B.imm 4) r0);
      B.sp ~ctl:(B.if_ss 0 (B.lbl "take") (B.lbl "top")) B.nop ];
  B.label t "pnext";
  (if broken then
     (* Forgot to signal: spin at BUSY forever. *)
     B.row t
       [ B.sp ~ctl:(B.goto B.self) B.nop;
         B.sp ~ctl:(B.if_ss 0 (B.lbl "take") (B.lbl "pnext")) B.nop ]
   else
     (* Halt: the FU's sync signal reads DONE from then on. *)
     B.row t
       [ B.sp ~ctl:B.halt B.nop;
         B.sp ~ctl:(B.if_ss 0 (B.lbl "take") (B.lbl "pnext")) B.nop ]);
  B.label t "take";
  B.row t [ B.d B.nop; B.d (B.mov (B.rop r0) r1) ];
  B.halt_row t;
  (B.build t, r0, r1)

let session_of ?faults ?(policy = M.Hazard.Raise) ?(max_cycles = 2_000)
    program =
  let config =
    Core.Config.make
      ~n_fus:(Core.Program.n_fus program)
      ~max_cycles ~hazard_policy:policy ()
  in
  Core.Session.create ~config ?faults ~model:Core.Engine.Per_fu program

let run_watched ?faults ?policy ?max_cycles ?window program =
  let session = session_of ?faults ?policy ?max_cycles program in
  let watchdog = Core.Watchdog.create ?window () in
  (Core.Session.run ~watchdog session, Core.Session.state session)

(* --- Watchdog classification ------------------------------------------- *)

let test_cross_wait_deadlock () =
  match run_watched (cross_wait ()) with
  | Core.Run.Deadlocked { cycles; spinning }, _ ->
    Alcotest.(check bool)
      "within bounded window"
      true
      (cycles <= 2 * Core.Watchdog.default_window);
    Alcotest.(check (list int))
      "both FUs spinning" [ 0; 1 ]
      (List.map (fun (w : Core.Run.waiting) -> w.fu) spinning);
    (match spinning with
     | [ w0; w1 ] ->
       Alcotest.(check string) "FU0 waits ss1" "ss1" (Cond.to_string w0.cond);
       Alcotest.(check string) "FU1 waits ss0" "ss0" (Cond.to_string w1.cond)
     | _ -> Alcotest.fail "expected two waiters")
  | outcome, _ ->
    Alcotest.failf "expected deadlock, got %a" Core.Run.pp outcome

let test_fuel_without_watchdog () =
  let session = session_of ~max_cycles:300 (cross_wait ()) in
  match Core.Session.run session with
  | Core.Run.Fuel_exhausted { cycles } ->
    Alcotest.(check int) "burned all fuel" 300 cycles
  | outcome -> Alcotest.failf "expected fuel out, got %a" Core.Run.pp outcome

let test_producer_consumer () =
  let broken, _, _ = producer_consumer ~broken:true in
  (match run_watched broken with
   | Core.Run.Deadlocked { spinning; _ }, _ ->
     Alcotest.(check bool)
       "consumer among spinners" true
       (List.exists (fun (w : Core.Run.waiting) -> w.fu = 1) spinning)
   | outcome, _ ->
     Alcotest.failf "expected deadlock, got %a" Core.Run.pp outcome);
  let fixed, r0, r1 = producer_consumer ~broken:false in
  match run_watched fixed with
  | Core.Run.Halted _, state ->
    Alcotest.(check bool)
      "value handed over" true
      (Value.equal
         (M.Regfile.read state.regs r0)
         (M.Regfile.read state.regs r1))
  | outcome, _ ->
    Alcotest.failf "fixed variant must halt, got %a" Core.Run.pp outcome

(* Every stock workload halts with identical cycle counts whether or not
   the watchdog is watching: no false positives, no perturbation. *)
let test_no_false_positives () =
  List.iter
    (fun (w : W.Workload.t) ->
      let plain =
        match W.Workload.run_checked w.ximd with
        | Ok (outcome, _) -> Core.Run.cycles outcome
        | Error msg -> Alcotest.failf "%s (plain): %s" w.name msg
      in
      let watchdog = Core.Watchdog.create () in
      match W.Workload.run_checked ~watchdog w.ximd with
      | Ok (outcome, _) ->
        Alcotest.(check int) (w.name ^ " cycles unchanged") plain
          (Core.Run.cycles outcome)
      | Error msg -> Alcotest.failf "%s (watched): %s" w.name msg)
    (W.Suite.all ())

let test_small_window () =
  let session = session_of (cross_wait ()) in
  let watchdog = Core.Watchdog.create ~window:8 () in
  match Core.Session.run ~watchdog session with
  | Core.Run.Deadlocked { cycles; _ } ->
    Alcotest.(check bool) "classified quickly" true (cycles <= 16)
  | outcome -> Alcotest.failf "expected deadlock, got %a" Core.Run.pp outcome

(* --- Fault injection --------------------------------------------------- *)

let test_ss_flip_rescue () =
  (* Flipping FU1's sync signal to DONE mid-spin releases FU0, which
     halts; its DONE then releases FU1: the deadlock is "rescued". *)
  let faults =
    M.Fault.create [ { at = 5; kind = M.Fault.Flip_ss; target = 1 } ]
  in
  match run_watched ~faults (cross_wait ()) with
  | Core.Run.Halted _, _ -> ()
  | outcome, _ ->
    Alcotest.failf "rescued run must halt, got %a" Core.Run.pp outcome

let test_stuck_halt_deadlocks () =
  (* Stuck-halt the producer before it reaches its normal halt: it stops
     without ever driving DONE, so only the consumer spins. *)
  let fixed, _, _ = producer_consumer ~broken:false in
  let faults =
    M.Fault.create [ { at = 0; kind = M.Fault.Stuck_halt; target = 0 } ]
  in
  match run_watched ~faults fixed with
  | Core.Run.Deadlocked { spinning; _ }, state ->
    Alcotest.(check (list int))
      "only the consumer spins" [ 1 ]
      (List.map (fun (w : Core.Run.waiting) -> w.fu) spinning);
    Alcotest.(check bool) "producer halted" true state.halted.(0)
  | outcome, _ ->
    Alcotest.failf "expected deadlock, got %a" Core.Run.pp outcome

let test_drop_write () =
  let fixed, r0, _ = producer_consumer ~broken:false in
  let faults =
    M.Fault.create [ { at = 0; kind = M.Fault.Drop_write; target = 0 } ]
  in
  let session = session_of ~faults fixed in
  let state = Core.Session.state session in
  (match Core.Session.run session with
   | Core.Run.Halted _ -> ()
   | outcome -> Alcotest.failf "must still halt, got %a" Core.Run.pp outcome);
  Alcotest.(check bool)
    "producer's write was dropped" true
    (Value.equal Value.zero (M.Regfile.read state.regs r0))

let test_dup_write_hazard () =
  let fixed, _, _ = producer_consumer ~broken:false in
  let faults =
    M.Fault.create [ { at = 0; kind = M.Fault.Dup_write; target = 0 } ]
  in
  let session = session_of ~faults ~policy:M.Hazard.Record fixed in
  let state = Core.Session.state session in
  (match Core.Session.run session with
   | Core.Run.Halted _ -> ()
   | outcome -> Alcotest.failf "must still halt, got %a" Core.Run.pp outcome);
  match Core.State.hazards state with
  | [ { hazard = M.Hazard.Multiple_reg_write _; cycle } ] ->
    Alcotest.(check int) "on the injected cycle" 0 cycle
  | events ->
    Alcotest.failf "expected one multiple-write hazard, got %d"
      (List.length events)

let test_schedule_determinism () =
  let s1 = M.Fault.random_schedule ~seed:42 ~n:20 ~n_fus:8 () in
  let s2 = M.Fault.random_schedule ~seed:42 ~n:20 ~n_fus:8 () in
  let s3 = M.Fault.random_schedule ~seed:43 ~n:20 ~n_fus:8 () in
  Alcotest.(check (list string))
    "same seed, same schedule"
    (List.map M.Fault.event_to_string s1)
    (List.map M.Fault.event_to_string s2);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (s1 <> s3);
  Alcotest.(check int) "requested count" 20 (List.length s1);
  List.iter
    (fun (e : M.Fault.event) ->
      Alcotest.(check bool) "target in range" true
        (e.target >= 0 && e.target < 8);
      Alcotest.(check bool) "cycle in range" true
        (e.at >= 0 && e.at < 10_000))
    s1

let test_spec_parse () =
  (match M.Fault.parse ~n_fus:4 "ss@10:1,halt@20:0,drop@3:2" with
   | Ok events ->
     Alcotest.(check (list string))
       "scripted events round-trip"
       [ "ss@10:1"; "halt@20:0"; "drop@3:2" ]
       (List.map M.Fault.event_to_string events)
   | Error msg -> Alcotest.fail msg);
  (match M.Fault.parse ~n_fus:8 "rand:7:5" with
   | Ok events -> Alcotest.(check int) "rand batch size" 5 (List.length events)
   | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match M.Fault.parse ~n_fus:4 bad with
      | Ok _ -> Alcotest.failf "spec %S must be rejected" bad
      | Error _ -> ())
    [ "zap@1:0"; "ss@1:9"; "ss@-2:1"; "ss@1"; "rand:x:3"; ""; "ss@1:0," ]

(* --- Diagnostics ------------------------------------------------------- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_postmortem () =
  let outcome, state = run_watched (cross_wait ()) in
  let report = Ximd_report.Diagnostics.collect state ~outcome in
  Alcotest.(check int) "one record per FU" 2
    (List.length report.Ximd_report.Diagnostics.fus);
  let text = Format.asprintf "%a" Ximd_report.Diagnostics.pp report in
  Alcotest.(check bool) "text mentions deadlock" true
    (contains ~affix:"deadlocked" text);
  let json = Ximd_json.to_string (Ximd_report.Diagnostics.to_json report) in
  Alcotest.(check bool) "json carries the outcome kind" true
    (contains ~affix:"\"kind\":\"deadlocked\"" json);
  Alcotest.(check bool) "json lists spinning FUs" true
    (contains ~affix:"\"spinning\"" json)

let test_postmortem_faults_listed () =
  let fixed, _, _ = producer_consumer ~broken:false in
  let faults =
    M.Fault.create [ { at = 0; kind = M.Fault.Stuck_halt; target = 0 } ]
  in
  let outcome, state = run_watched ~faults fixed in
  let report = Ximd_report.Diagnostics.collect state ~outcome in
  match report.Ximd_report.Diagnostics.faults with
  | [ e ] ->
    Alcotest.(check string) "fired fault recorded" "halt@0:0"
      (M.Fault.event_to_string e)
  | fs -> Alcotest.failf "expected one fired fault, got %d" (List.length fs)

(* --- Property: runs under fault injection always classify -------------- *)

let gen_fault_seed = QCheck2.Gen.int_bound 0xffff

let prop_faulted_runs_classify =
  QCheck2.Test.make ~count:150
    ~name:"faulted random programs always classify, never raise"
    QCheck2.Gen.(pair Tprops.gen_valid_program gen_fault_seed)
    (fun (program, seed) ->
      let n_fus = Core.Program.n_fus program in
      let run () =
        let faults =
          M.Fault.create
            (M.Fault.random_schedule ~seed ~n:12 ~until:400 ~n_fus ())
        in
        let config =
          Core.Config.make ~n_fus ~max_cycles:400
            ~hazard_policy:M.Hazard.Record ()
        in
        let session =
          Core.Session.create ~config ~faults ~model:Core.Engine.Per_fu
            program
        in
        let watchdog = Core.Watchdog.create ~window:16 () in
        let outcome = Core.Session.run ~watchdog session in
        (outcome, M.Regfile.dump (Core.Session.state session).regs)
      in
      let outcome1, regs1 = run () in
      let outcome2, regs2 = run () in
      (* Terminates classified (any constructor), deterministically. *)
      Core.Run.cycles outcome1 = Core.Run.cycles outcome2
      && Array.for_all2 Value.equal regs1 regs2)

let suite =
  [ ( "watchdog",
      [ Alcotest.test_case "cross-wait deadlock classified" `Quick
          test_cross_wait_deadlock;
        Alcotest.test_case "no watchdog: fuel exhaustion" `Quick
          test_fuel_without_watchdog;
        Alcotest.test_case "producer/consumer hang and fix" `Quick
          test_producer_consumer;
        Alcotest.test_case "no false positives on workloads" `Quick
          test_no_false_positives;
        Alcotest.test_case "small window classifies quickly" `Quick
          test_small_window ] );
    ( "faults",
      [ Alcotest.test_case "ss flip rescues a deadlock" `Quick
          test_ss_flip_rescue;
        Alcotest.test_case "stuck halt wedges the handshake" `Quick
          test_stuck_halt_deadlocks;
        Alcotest.test_case "drop write loses the result" `Quick
          test_drop_write;
        Alcotest.test_case "dup write surfaces as hazard" `Quick
          test_dup_write_hazard;
        Alcotest.test_case "schedules deterministic per seed" `Quick
          test_schedule_determinism;
        Alcotest.test_case "spec grammar parses and rejects" `Quick
          test_spec_parse;
        QCheck_alcotest.to_alcotest prop_faulted_runs_classify ] );
    ( "diagnostics",
      [ Alcotest.test_case "postmortem text and json" `Quick test_postmortem;
        Alcotest.test_case "fired faults listed" `Quick
          test_postmortem_faults_listed ] ) ]
