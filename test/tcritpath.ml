(* Dynamic critical path: hand-built chains realise the expected bound,
   control edges appear with their 2-cycle latency, and on random
   programs the lower bound never exceeds the realised cycle count
   (soundness), the export is deterministic, and attaching the analysis
   never perturbs the run. *)

module Core = Ximd_core
module Obs = Ximd_obs
module CP = Ximd_obs.Critpath

let check_int = Alcotest.(check int)

let parse src =
  match Ximd_asm.Source.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e

let run_observed ?(result_latency = 1) program =
  let n_fus = Core.Program.n_fus program in
  let config =
    Core.Config.make ~n_fus ~result_latency ~max_cycles:500 ()
  in
  let sink =
    Obs.Sink.create ~n_fus ~code_len:(Core.Program.length program)
      ~critpath:true ()
  in
  let session =
    Core.Session.create ~config ~obs:sink ~model:Core.Engine.Per_fu program
  in
  let outcome = Core.Session.run session in
  (outcome, Core.Session.state session, Option.get (Obs.Sink.critpath sink))

let kind_sum cp kind = List.assoc kind (CP.breakdown cp)

(* Three dependent adds spaced result_latency=3 apart: the chain is
   start + two realised Reg edges of 3 cycles each, so the lower bound
   is exactly 7 and carries no slack.  The register values prove the
   dependences were realised (each use read the committed def). *)
let test_reg_chain_latency () =
  let program =
    parse
      {|.fus 1
  [0] iadd r0, #1, r1 | -> @1
  [0] nop | -> @2
  [0] nop | -> @3
  [0] iadd r1, #1, r2 | -> @4
  [0] nop | -> @5
  [0] nop | -> @6
  [0] iadd r2, #1, r3 | halt
|}
  in
  let outcome, state, cp = run_observed ~result_latency:3 program in
  let realised =
    match outcome with
    | Core.Run.Halted { cycles } -> cycles
    | _ -> Alcotest.fail "expected halt"
  in
  check_int "lower bound" 7 (CP.lower_bound cp);
  if CP.lower_bound cp > realised then Alcotest.fail "bound above realised";
  let reg = kind_sum cp CP.Reg in
  check_int "reg edges" 2 reg.CP.k_edges;
  check_int "reg bound cycles" 6 reg.CP.k_cycles;
  check_int "reg slack" 0 reg.CP.k_slack;
  let r3 = Ximd_machine.Regfile.read state.Core.State.regs (Ximd_isa.Reg.make 3) in
  Alcotest.(check bool) "chain realised architecturally" true
    (Ximd_isa.Value.equal r3 (Ximd_isa.Value.of_int 3))

(* An input's destination is a register def like any other: the add
   that reads it three cycles later, at latency 3, carries a Reg edge
   from the input with no slack. *)
let test_input_heads_reg_chain () =
  let program =
    parse
      {|.fus 1
  [0] in #1, r1 | -> @1
  [0] nop | -> @2
  [0] nop | -> @3
  [0] iadd r1, #1, r2 | halt
|}
  in
  let _outcome, _state, cp = run_observed ~result_latency:3 program in
  let reg = kind_sum cp CP.Reg in
  check_int "reg edges" 1 reg.CP.k_edges;
  check_int "reg bound cycles" 3 reg.CP.k_cycles

(* An SS handshake: FU1's first op after the spin carries an Ss edge
   from FU0's signalling op, with the 2-cycle control latency and no
   slack (the consumer issues as early as the release allows). *)
let test_ss_edge () =
  let program =
    parse
      {|.fus 2
top:
  [0] iadd r9, #1, r1 | -> fin | done
  [1] nop             | if ss0 c : top
c:
  [1] iadd r9, #2, r2 | -> fin
fin:
  [0] nop | halt
  [1] nop | halt
|}
  in
  let outcome, _state, cp = run_observed program in
  (match outcome with
   | Core.Run.Halted _ -> ()
   | _ -> Alcotest.fail "expected halt");
  let ss = kind_sum cp CP.Ss in
  check_int "one ss edge" 1 ss.CP.k_edges;
  check_int "ss latency on the path" 2 ss.CP.k_cycles;
  check_int "ss slack" 0 ss.CP.k_slack;
  (* The chain must end at FU1's post-release op at cycle 2. *)
  match List.rev (CP.path cp) with
  | last :: _ ->
    check_int "chain tail fu" 1 last.CP.s_fu;
    check_int "chain tail cycle" 2 last.CP.s_cycle
  | [] -> Alcotest.fail "empty path"

(* Soundness + transparency + determinism on random programs: the
   analysis never perturbs outcome/stats/registers, the lower bound
   never exceeds the realised cycle count, every path slack is
   non-negative, and the JSON export is valid and identical across two
   runs. *)
let prop_critpath_sound =
  QCheck2.Test.make ~count:150
    ~name:"critical path sound, transparent, deterministic"
    Tprops.gen_valid_program (fun program ->
      let n_fus = Core.Program.n_fus program in
      let config =
        Core.Config.make ~n_fus ~max_cycles:300
          ~hazard_policy:Ximd_machine.Hazard.Record ()
      in
      let bare =
        let session =
          Core.Session.create ~config ~model:Core.Engine.Per_fu program
        in
        let outcome = Core.Session.run session in
        let state = Core.Session.state session in
        (outcome, Core.Stats.copy state.stats,
         Ximd_machine.Regfile.dump state.regs)
      in
      let observed () =
        let sink =
          Obs.Sink.create ~n_fus ~code_len:(Core.Program.length program)
            ~critpath:true ()
        in
        let session =
          Core.Session.create ~config ~obs:sink ~model:Core.Engine.Per_fu
            program
        in
        let outcome = Core.Session.run session in
        let state = Core.Session.state session in
        let cp = Option.get (Obs.Sink.critpath sink) in
        ( (outcome, Core.Stats.copy state.stats,
           Ximd_machine.Regfile.dump state.regs),
          Ximd_json.to_string (CP.to_json cp ~realised:state.stats.cycles),
          CP.lower_bound cp,
          List.for_all (fun s -> s.CP.s_slack >= 0) (CP.path cp) )
      in
      let (o1, s1, r1) = bare in
      let (o2, s2, r2), json, bound, slacks_ok = observed () in
      let _, json', _, _ = observed () in
      (match Ximd_json.parse json with
       | Ok _ -> ()
       | Error msg -> QCheck2.Test.fail_reportf "invalid JSON: %s" msg);
      o1 = o2 && s1 = s2
      && Array.for_all2 Ximd_isa.Value.equal r1 r2
      && bound <= s2.Core.Stats.cycles
      && slacks_ok
      && String.equal json json')

(* An ANY barrier released by FU1's signal alone: FU2 pulsed DONE and
   went BUSY again before FU0 reached the barrier, so FU2's earlier op
   is no producer of the release.  FU0's op after the barrier carries a
   barrier edge from the end of FU1's 8-op chain (dist 7 + 2), which
   makes the bound 10; binding FU2's op instead would leave it at
   FU1's chain, 8. *)
let test_any_barrier_binds_done_signals () =
  let program =
    parse
      {|.fus 3
  [0] mov #5, r1          | -> a1
  [1] iadd r11, #1, r11   | -> c1
  [2] mov #1, r20         | -> q1 | done
a1:
  [0] iadd r1, #1, r1     | -> a2
q1:
  [2] nop                 | -> s2
a2:
  [0] iadd r1, #1, r1     | -> bar
bar:
  [0] nop                 | if any(1,2) go : bar
go:
  [0] iadd r1, #1, r2     | -> fin0
fin0:
  [0] nop                 | halt
c1:
  [1] iadd r11, #1, r11   | -> c2
c2:
  [1] iadd r11, #1, r11   | -> c3
c3:
  [1] iadd r11, #1, r11   | -> c4
c4:
  [1] iadd r11, #1, r11   | -> c5
c5:
  [1] iadd r11, #1, r11   | -> c6
c6:
  [1] iadd r11, #1, r11   | -> c7
c7:
  [1] iadd r11, #1, r11   | -> e1 | done
e1:
  [1] nop                 | halt
s2:
  [2] nop                 | if ss0 e2 : s2
e2:
  [2] nop                 | halt
|}
  in
  let outcome, _state, cp = run_observed program in
  (match outcome with
   | Core.Run.Halted _ -> ()
   | _ -> Alcotest.fail "expected halt");
  check_int "lower bound" 10 (CP.lower_bound cp);
  let barrier = kind_sum cp CP.Barrier in
  check_int "one barrier edge" 1 barrier.CP.k_edges;
  match List.rev (CP.path cp) with
  | last :: _ ->
    check_int "chain tail fu" 0 last.CP.s_fu;
    check_int "chain tail cycle" 9 last.CP.s_cycle
  | [] -> Alcotest.fail "empty path"

let suite =
  [ ( "critpath",
      [ Alcotest.test_case "register chain bound at latency 3" `Quick
          test_reg_chain_latency;
        Alcotest.test_case "ss handshake edge" `Quick test_ss_edge;
        QCheck_alcotest.to_alcotest prop_critpath_sound;
        Alcotest.test_case "an input heads a register chain" `Quick
          test_input_heads_reg_chain;
        Alcotest.test_case "an ANY barrier binds only DONE signals" `Quick
          test_any_barrier_binds_done_signals ] ) ]
