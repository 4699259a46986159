(* Differential XIMD-vs-VLIW reports: the sides match independent runs
   of the same variants (the acceptance criterion for --compare), the
   pipeline example's three why-analysis JSON documents are pinned to
   the goldens byte for byte, and the two pipeline codings agree on
   every architecturally-visible register. *)

module Core = Ximd_core
module Obs = Ximd_obs
module W = Ximd_workloads
module Compare = Ximd_report.Compare

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_file path =
  match Ximd_asm.Source.parse_file path with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %s: %a" path Ximd_asm.Source.pp_error e

let pipeline_ximd = "../examples/asm/pipeline.xasm"
let pipeline_vliw = "../examples/asm/pipeline_vliw.xasm"

(* The report's two sides must equal what independent Session-free runs
   of the same variants produce: same cycles, same delta, same speedup
   as Workload.speedup. *)
let test_minmax_delta_matches_independent_runs () =
  let w = W.Minmax.make () in
  let t =
    match Compare.of_workload w with
    | Ok t -> t
    | Error e -> Alcotest.failf "compare: %s" e
  in
  let cycles variant =
    let _outcome, state = W.Workload.run variant in
    state.Core.State.stats.cycles
  in
  let xc = cycles w.W.Workload.ximd in
  let vc = cycles (Option.get w.W.Workload.vliw) in
  check_int "ximd cycles" xc t.Compare.ximd.Compare.cycles;
  check_int "vliw cycles" vc t.Compare.vliw.Compare.cycles;
  check_int "delta" (vc - xc) (Compare.delta_cycles t);
  match W.Workload.speedup w with
  | Error e -> Alcotest.failf "speedup: %s" e
  | Ok (speedup, xc', vc') ->
    check_int "speedup ximd cycles" xc' xc;
    check_int "speedup vliw cycles" vc' vc;
    Alcotest.(check (float 1e-9)) "speedup" speedup (Compare.speedup t)

(* Conservation carries into the report: each side's account covers
   exactly cycles × n_fus slots and its Commit count equals the side's
   committed data ops. *)
let test_sides_conserved () =
  let t =
    match
      Compare.run
        ~ximd:(Compare.spec (parse_file pipeline_ximd))
        ~vliw:(Compare.spec (parse_file pipeline_vliw))
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "compare: %s" e
  in
  List.iter
    (fun (side : Compare.side) ->
      check_int
        (side.Compare.label ^ " slots conserved")
        (side.Compare.cycles * side.Compare.n_fus)
        (Obs.Account.slots side.Compare.account);
      check_int
        (side.Compare.label ^ " commit = data ops")
        side.Compare.stats.Core.Stats.data_ops
        (Obs.Account.total side.Compare.account Obs.Account.Commit))
    [ t.Compare.ximd; t.Compare.vliw ]

(* The three why-analysis documents for the pipeline example are pinned
   byte for byte: the CLI goldens under test/goldens/ must equal what
   the library emits (the CLI appends one newline). *)
let test_pipeline_compare_golden () =
  let t =
    match
      Compare.run
        ~ximd:(Compare.spec (parse_file pipeline_ximd))
        ~vliw:(Compare.spec (parse_file pipeline_vliw))
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "compare: %s" e
  in
  let json = Ximd_json.to_string (Compare.to_json t) in
  Tobs.check_schema "ximd-compare/1" json;
  check_str "compare golden" (read_file "goldens/pipeline.compare.json")
    (json ^ "\n")

let test_pipeline_account_critpath_goldens () =
  let program = parse_file pipeline_ximd in
  let n_fus = Core.Program.n_fus program in
  let sink =
    Obs.Sink.create ~n_fus ~code_len:(Core.Program.length program)
      ~critpath:true ()
  in
  let config = Core.Config.make ~n_fus () in
  let session =
    Core.Session.create ~config ~obs:sink ~model:Core.Engine.Per_fu program
  in
  let state = Core.Session.state session in
  (match Core.Session.run session with
   | Core.Run.Halted _ -> ()
   | _ -> Alcotest.fail "expected halt");
  let cycles = state.Core.State.stats.cycles in
  let acct = Option.get (Obs.Sink.account sink) in
  let cp = Option.get (Obs.Sink.critpath sink) in
  check_str "account golden"
    (read_file "goldens/pipeline.account.json")
    (Ximd_json.to_string (Obs.Account.to_json acct ~cycles) ^ "\n");
  check_str "critpath golden"
    (read_file "goldens/pipeline.critpath.json")
    (Ximd_json.to_string (Obs.Critpath.to_json cp ~realised:cycles) ^ "\n")

(* The VLIW recoding is the same computation: both codings halt and
   agree on every result register. *)
let test_pipeline_codings_agree () =
  let run model program =
    let config = Core.Config.make ~n_fus:(Core.Program.n_fus program) () in
    let session = Core.Session.create ~config ~model program in
    match Core.Session.run session with
    | Core.Run.Halted _ -> Core.Session.state session
    | _ -> Alcotest.fail "expected halt"
  in
  let sx = run Core.Engine.Per_fu (parse_file pipeline_ximd) in
  let sv = run Core.Engine.Global (parse_file pipeline_vliw) in
  List.iter
    (fun r ->
      let get (state : Core.State.t) =
        Ximd_machine.Regfile.read state.regs (Ximd_isa.Reg.make r)
      in
      if not (Ximd_isa.Value.equal (get sx) (get sv)) then
        Alcotest.failf "register r%d differs between codings" r)
    [ 1; 2; 10; 11; 12; 20; 30 ]

let suite =
  [ ( "compare",
      [ Alcotest.test_case "minmax delta matches independent runs" `Quick
          test_minmax_delta_matches_independent_runs;
        Alcotest.test_case "sides conserved" `Quick test_sides_conserved;
        Alcotest.test_case "pipeline compare golden" `Quick
          test_pipeline_compare_golden;
        Alcotest.test_case "pipeline account+critpath goldens" `Quick
          test_pipeline_account_critpath_goldens;
        Alcotest.test_case "pipeline codings agree" `Quick
          test_pipeline_codings_agree ] ) ]
