(* Per-slot cycle accounting: the closed taxonomy is conserved against
   the engine's own counters on random programs, the spinning-stream
   charge is per member FU (the PR-5 spin_slots fix), and the JSON
   export is valid, byte-stable, and carries its schema tag. *)

module Core = Ximd_core
module Obs = Ximd_obs
module A = Ximd_obs.Account
module W = Ximd_workloads

let check_int = Alcotest.(check int)

let parse src =
  match Ximd_asm.Source.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e

let observed_run ?(config = fun n_fus -> Core.Config.make ~n_fus ())
    ?(model = Core.Engine.Per_fu) ?faults program =
  let n_fus = Core.Program.n_fus program in
  let sink =
    Obs.Sink.create ~n_fus ~code_len:(Core.Program.length program) ()
  in
  let session =
    Core.Session.create ~config:(config n_fus) ?faults ~obs:sink ~model
      program
  in
  let outcome = Core.Session.run session in
  let state = Core.Session.state session in
  let acct =
    match Obs.Sink.account sink with
    | Some a -> a
    | None -> Alcotest.fail "sink has no account"
  in
  (outcome, state, acct)

(* Every fu×cycle slot lands in exactly one category, and the category
   totals are conserved against the engine's independent counters:
   - all categories sum to cycles × n_fus;
   - the data-op categories sum to stats.data_ops;
   - the nop categories sum to stats.nops;
   - the spin categories (including squashed re-executions) sum to
     stats.spin_slots;
   - halted slots equal stats.halted_slots plus whole drained cycles. *)
let prop_account_conserved =
  QCheck2.Test.make ~count:150
    ~name:"slot accounting conserved against engine counters"
    Tprops.gen_valid_program (fun program ->
      let n_fus = Core.Program.n_fus program in
      let config _ =
        Core.Config.make ~n_fus ~max_cycles:300
          ~hazard_policy:Ximd_machine.Hazard.Record ()
      in
      let _outcome, state, acct = observed_run ~config program in
      let stats = state.Core.State.stats in
      let t c = A.total acct c in
      A.slots acct = stats.cycles * n_fus
      && t A.Commit + t A.Squashed + t A.Fault_lost = stats.data_ops
      && t A.Nop_padding + t A.Spin_ss + t A.Spin_cc + t A.Barrier_wait
         = stats.nops
      && t A.Spin_ss + t A.Spin_cc + t A.Barrier_wait + t A.Squashed
         = stats.spin_slots
      && t A.Fault_lost = 0
      && t A.Halted >= stats.halted_slots
      && (t A.Halted - stats.halted_slots) mod n_fus = 0)

(* On fault-free forward programs every non-nop op commits exactly one
   result, so the Commit category, stats.commit_ops, and stats.data_ops
   all agree. *)
let prop_commit_matches_commit_ops =
  QCheck2.Test.make ~count:150
    ~name:"commit slots = stats.commit_ops on forward programs"
    Tprops.gen_forward_program (fun (program, n_fus) ->
      let config _ = Core.Config.make ~n_fus ~max_cycles:1000 () in
      match observed_run ~config program with
      | Core.Run.Halted _, state, acct ->
        A.total acct A.Commit = state.Core.State.stats.commit_ops
        && A.total acct A.Commit = state.Core.State.stats.data_ops
      | (Core.Run.Fuel_exhausted _ | Core.Run.Deadlocked _
        | Core.Run.Budget_exceeded _), _, _ -> false)

(* A spinning stream wastes one slot per live MEMBER per cycle, not one
   per sequencer: under the global sequencer a 2-FU spin must charge 2
   spin slots per spin cycle, and the per-slot taxonomy must agree with
   the engine's stats.spin_slots counter exactly.  (Sync signals have
   no architectural role under Global, so the release comes from a
   condition code: FU1 re-compares the counter FU0 increments each
   spin iteration.) *)
let test_global_spin_charged_per_member () =
  let program =
    parse
      {|.fus 2
init:
  [0] mov #0, r1      | -> chk
  [1] nop             | -> chk
chk:
  [0] nop             | -> spin
  [1] lt r1, #3       | -> spin
spin:
  [0] iadd r1, #1, r1 | if cc1 spin : fin
  [1] lt r1, #3       | if cc1 spin : fin
fin:
  [0] nop | halt
  [1] nop | halt
|}
  in
  let outcome, state, acct =
    observed_run ~model:Core.Engine.Global program
  in
  (match outcome with
   | Core.Run.Halted _ -> ()
   | _ -> Alcotest.fail "expected halt");
  let stats = state.Core.State.stats in
  check_int "four spin cycles charge both members" 8 stats.spin_slots;
  (* the re-executed data ops under the spin are squashed slots *)
  check_int "taxonomy agrees with stats.spin_slots" stats.spin_slots
    (A.total acct A.Squashed);
  check_int "FU0 squashed slots" 4 (A.count acct ~fu:0 A.Squashed);
  check_int "FU1 squashed slots" 4 (A.count acct ~fu:1 A.Squashed)

(* A barrier rendezvous is attributed to Barrier_wait, not Spin_ss. *)
let test_barrier_wait_attributed () =
  let program =
    parse
      {|.fus 2
go:
  [0] iadd r0, #1, r1 | -> bar | done
  [1] nop             | -> w
w:
  [1] nop             | -> w2
w2:
  [1] nop             | -> bar
bar:
  [0] nop | if all fin : bar | done
  [1] nop | if all fin : bar | done
fin:
  [0] nop | halt
  [1] nop | halt
|}
  in
  let outcome, _state, acct = observed_run program in
  (match outcome with
   | Core.Run.Halted _ -> ()
   | _ -> Alcotest.fail "expected halt");
  if A.total acct A.Barrier_wait = 0 then
    Alcotest.fail "expected barrier_wait slots";
  check_int "no ss-spin slots" 0 (A.total acct A.Spin_ss);
  (* FU0 arrives first and waits for FU1. *)
  if A.count acct ~fu:0 A.Barrier_wait <= A.count acct ~fu:1 A.Barrier_wait
  then Alcotest.fail "early FU0 should wait longer than late FU1"

(* A dropped write-port transfer loses only the operations that stage a
   register or memory write: with every FU's port dropping, an add and a
   store are lost, while a compare and an output, which bypass the
   staging ports, commit. *)
let test_dropped_writes_attributed () =
  let program =
    parse
      {|.fus 4
  [0] iadd #1, #2, r1 | halt
  [1] store #5, #100  | halt
  [2] lt #1, #2       | halt
  [3] out #7, #1      | halt
|}
  in
  let faults =
    Result.get_ok
      (Ximd_machine.Fault.of_spec ~n_fus:4
         "drop@0:0,drop@0:1,drop@0:2,drop@0:3")
  in
  let _outcome, _state, acct = observed_run ~faults program in
  List.iter
    (fun (fu, what, cls) -> check_int what 1 (A.count acct ~fu cls))
    [ (0, "add lost", A.Fault_lost); (1, "store lost", A.Fault_lost);
      (2, "compare commits", A.Commit); (3, "output commits", A.Commit) ]

let minmax_account () =
  let variant = (W.Minmax.make ()).W.Workload.ximd in
  let sink =
    Obs.Sink.create ~n_fus:variant.config.n_fus
      ~code_len:(Core.Program.length variant.program)
      ()
  in
  let _outcome, state = W.Workload.run ~obs:sink variant in
  let acct = Option.get (Obs.Sink.account sink) in
  Ximd_json.to_string (A.to_json acct ~cycles:state.Core.State.stats.cycles)

let test_account_json_valid_and_stable () =
  let json = minmax_account () in
  Tobs.check_schema "ximd-account/1" json;
  Alcotest.(check string) "byte-stable across runs" json (minmax_account ())

let suite =
  [ ( "account",
      [ QCheck_alcotest.to_alcotest prop_account_conserved;
        QCheck_alcotest.to_alcotest prop_commit_matches_commit_ops;
        Alcotest.test_case "global spin charged per member FU" `Quick
          test_global_spin_charged_per_member;
        Alcotest.test_case "barrier wait attributed" `Quick
          test_barrier_wait_attributed;
        Alcotest.test_case "account json valid and stable" `Quick
          test_account_json_valid_and_stable;
        Alcotest.test_case "dropped writes lose only staged results" `Quick
          test_dropped_writes_attributed ] ) ]
