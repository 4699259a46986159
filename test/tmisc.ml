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
          test_tracer_limit_keeps_tail ] ) ]
