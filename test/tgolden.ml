(* Golden tests against the paper's published execution traces. *)

open Ximd_workloads

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* Figure 10: the MINMAX address trace for IZ = (5,3,4,7), reproduced
   cycle for cycle: addresses, condition codes, partitions. *)
let test_figure10 () =
  let tracer = Ximd_core.Tracer.create () in
  let outcome, state = Workload.run ~tracer (Minmax.paper_variant ()) in
  (match outcome with
   | Ximd_core.Run.Fuel_exhausted { cycles } -> check_int "cycles" 14 cycles
   | Ximd_core.Run.Halted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
     Alcotest.fail "paper listing spins at 0a:, must not halt");
  let rows = Ximd_core.Tracer.rows tracer in
  check_int "trace length" (List.length Minmax.figure10_expected)
    (List.length rows);
  List.iteri
    (fun cycle ((pcs, ccs, partition), (row : Ximd_core.Tracer.row)) ->
      let where what = Printf.sprintf "cycle %d %s" cycle what in
      check_int (where "cycle no") cycle row.cycle;
      let got_pcs =
        Array.to_list row.pcs
        |> List.map (function Some pc -> pc | None -> -1)
      in
      Alcotest.(check (list int)) (where "pcs") pcs got_pcs;
      check (where "ccs") ccs (Ximd_core.Tracer.cc_string row.ccs);
      check (where "partition") partition
        (Ximd_core.Partition.to_string row.partition))
    (List.combine Minmax.figure10_expected rows);
  (* The paper stops tracing at cycle 13 but the result registers already
     hold the answer: min = 3, max = 7. *)
  match (Minmax.paper_variant ()).check state with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_minmax_checked () =
  match Workload.run_checked (Minmax.make ()).ximd with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_minmax_vliw_checked () =
  match (Minmax.make ()).vliw with
  | None -> Alcotest.fail "minmax has a VLIW variant"
  | Some v -> (
    match Workload.run_checked v with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg)

let test_minmax_speedup () =
  match Workload.speedup (Minmax.make ()) with
  | Error msg -> Alcotest.fail msg
  | Ok (speedup, ximd_cycles, vliw_cycles) ->
    if speedup <= 1.0 then
      Alcotest.failf "expected XIMD to win: %.2f (%d vs %d)" speedup
        ximd_cycles vliw_cycles

let test_tproc_five_cycles () =
  match Workload.run_checked (Tproc.make ()).ximd with
  | Error msg -> Alcotest.fail msg
  | Ok (outcome, _) ->
    (* 5 schedule rows + 1 halt row *)
    check_int "cycles" (Tproc.body_cycles + 1) (Ximd_core.Run.cycles outcome)

let test_tproc_vliw_parity () =
  match Workload.speedup (Tproc.make ~a:100 ~b:(-7) ~c:13 ~d:2 ()) with
  | Error msg -> Alcotest.fail msg
  | Ok (speedup, _, _) ->
    Alcotest.(check (float 0.0001)) "parity" 1.0 speedup

(* Every experiment bench/main.exe regenerates, except the "all" and
   "ablations" aggregates, which only run the others in turn. *)
(* Every experiment runs, e2 reproduces Figure 10, and the whole report
   — partitions, cycle counts and speed-ups included — is byte for byte
   what [bench/main.exe] (which runs [all] then [ablations]) printed
   when goldens/experiments.txt was pinned. *)
let test_experiments_run () =
  let known = Ximd_report.Experiments.known @ Ximd_report.Ablations.known in
  List.iter
    (fun (id, run) ->
      if id <> "all" && id <> "ablations" then
        match Format.asprintf "@[<v>%t@]" run with
        | exception e ->
          Alcotest.failf "experiment %s raised %s" id (Printexc.to_string e)
        | text ->
          if id = "e2" then
            Alcotest.(check bool) "e2 reproduces figure 10" true
              (List.exists
                 (String.starts_with ~prefix:"figure-10 agreement: EXACT")
                 (String.split_on_char '\n' text)))
    known;
  let report id = Format.asprintf "@[<v>%t@]@." (List.assoc id known) in
  check "all and ablations match the golden"
    (In_channel.with_open_text "goldens/experiments.txt" In_channel.input_all)
    (report "all" ^ report "ablations")

let suite =
  [ ( "golden",
      [ Alcotest.test_case "figure 10: MINMAX address trace" `Quick
          test_figure10;
        Alcotest.test_case "minmax ximd checked" `Quick test_minmax_checked;
        Alcotest.test_case "minmax vliw checked" `Quick
          test_minmax_vliw_checked;
        Alcotest.test_case "minmax speedup > 1" `Quick test_minmax_speedup;
        Alcotest.test_case "tproc runs in 5 cycles" `Quick
          test_tproc_five_cycles;
        Alcotest.test_case "tproc ximd/vliw parity" `Quick
          test_tproc_vliw_parity;
        Alcotest.test_case "every paper experiment and ablation runs" `Quick
          test_experiments_run ] ) ]
