(* The E5 comparison suite: every workload runs, checks, and lands in
   its expected speedup band ("who wins, by roughly what factor"). *)

open Ximd_workloads
module Compare = Ximd_report.Compare

(* (name, min speedup, max speedup) — parity kernels must sit at exactly
   1.0 (same program on both simulators); control-parallel workloads
   must show a clear XIMD win. *)
let expectations =
  [ ("tproc", 1.0, 1.0);
    ("ll1", 1.0, 1.0);
    ("ll3", 1.0, 1.0);
    ("ll5", 1.0, 1.0);
    ("ll12", 1.0, 1.0);
    ("matmul", 1.0, 1.0);
    ("minmax", 1.3, 5.0);
    ("bitcount", 1.5, 6.0);
    ("classify", 2.0, 6.0);
    ("iosync", 1.2, 4.0) ]

let rows =
  lazy
    (List.map
       (fun (w : Workload.t) ->
         match Compare.of_workload w with
         | Ok t -> (w.name, t)
         | Error msg -> Alcotest.failf "suite failed: %s" msg)
       (Suite.all ()))

let test_all_measured () =
  let rows = Lazy.force rows in
  Alcotest.(check int) "all workloads measured" (List.length expectations)
    (List.length rows)

let test_speedup_band (name, lo, hi) () =
  let rows = Lazy.force rows in
  match List.assoc_opt name rows with
  | None -> Alcotest.failf "workload %s missing from suite" name
  | Some t ->
    let speedup = Compare.speedup t in
    if speedup < lo || speedup > hi then
      Alcotest.failf "%s: speedup %.2f outside [%.2f, %.2f] (%d vs %d cycles)"
        name speedup lo hi t.ximd.cycles t.vliw.cycles

let test_streams () =
  let rows = Lazy.force rows in
  let streams name = (List.assoc name rows).Compare.ximd.stats.max_streams in
  (* Synchronous kernels never leave the single-SSET mode... *)
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " streams") 1 (streams name))
    [ "tproc"; "ll1"; "ll3"; "ll5"; "ll12"; "matmul" ];
  (* ...while the control-parallel ones fork. *)
  Alcotest.(check int) "minmax streams" 3 (streams "minmax");
  Alcotest.(check int) "bitcount streams" 4 (streams "bitcount");
  Alcotest.(check int) "classify streams" 4 (streams "classify");
  Alcotest.(check int) "iosync streams" 2 (streams "iosync")

let suite =
  [ ( "suite",
      Alcotest.test_case "all measured" `Quick test_all_measured
      :: Alcotest.test_case "stream counts" `Quick test_streams
      :: List.map
           (fun ((name, lo, hi) as e) ->
             Alcotest.test_case
               (Printf.sprintf "%s in [%.1f, %.1f]" name lo hi)
               `Quick (test_speedup_band e))
           expectations ) ]
