(* Workload edge cases: boundary sizes, extreme values, alternative
   schedules. *)

open Ximd_workloads
module Compare = Ximd_report.Compare

let speedup_ok ?(min_speedup = 0.0) workload =
  match Compare.of_workload workload with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    if Compare.speedup t < min_speedup then
      Alcotest.failf "%s: speedup %.2f below %.2f (%d vs %d)"
        workload.Workload.name (Compare.speedup t) min_speedup t.ximd.cycles
        t.vliw.cycles

let checked variant =
  match Workload.run_checked variant with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* --- MINMAX ----------------------------------------------------------- *)

let test_minmax_n2 () = speedup_ok (Minmax.make ~data:[| 9; -4 |] ())

let test_minmax_descending () =
  speedup_ok (Minmax.make ~data:[| 50; 40; 30; 20; 10; 0; -10; -20 |] ())

let test_minmax_ascending () =
  speedup_ok (Minmax.make ~data:[| -20; -10; 0; 10; 20; 30; 40; 50 |] ())

let test_minmax_duplicates () =
  speedup_ok (Minmax.make ~data:[| 7; 7; 7; 7; 7; 7 |] ())

let test_minmax_large () =
  let data = Array.init 200 (fun i -> (i * 7919) mod 1000 - 500) in
  speedup_ok ~min_speedup:1.3 (Minmax.make ~data ())

let test_minmax_rejects_bad_data () =
  Alcotest.(check bool) "n=1 rejected" true
    (match Minmax.make ~data:[| 5 |] () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "maxint head rejected" true
    (match Minmax.make ~data:[| Int32.to_int Int32.max_int; 3 |] () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Livermore -------------------------------------------------------- *)

let test_livermore_minimum_sizes () =
  checked (Livermore.loop12 ~n:4 ()).ximd;
  checked (Livermore.loop3 ~n:4 ()).ximd;
  checked (Livermore.loop1 ~n:2 ()).ximd;
  checked (Livermore.loop5 ~n:2 ()).ximd

let test_livermore_larger () =
  checked (Livermore.loop12 ~n:256 ()).ximd;
  checked (Livermore.loop3 ~n:128 ()).ximd;
  checked (Livermore.loop1 ~n:100 ()).ximd;
  checked (Livermore.loop5 ~n:100 ()).ximd

let test_livermore_rejects_bad_n () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "bad n rejected" true
        (match f () with exception Invalid_argument _ -> true | _ -> false))
    [ (fun () -> Livermore.loop12 ~n:3 ());
      (fun () -> Livermore.loop12 ~n:0 ());
      (fun () -> Livermore.loop3 ~n:6 ());
      (fun () -> Livermore.loop1 ~n:5 ());
      (fun () -> Livermore.loop5 ~n:1 ()) ]

let test_ll12_cycle_shape () =
  (* Steady state: 3 rows per 4 elements + prologue + halt. *)
  match Workload.run_checked (Livermore.loop12 ~n:64 ()).ximd with
  | Error msg -> Alcotest.fail msg
  | Ok (outcome, _) ->
    let cycles = Ximd_core.Run.cycles outcome in
    let expected = (64 / 4 * 3) + 2 in
    Alcotest.(check int) "pipelined cycle count" expected cycles

(* --- Classify ---------------------------------------------------------- *)

let test_classify_all_one_bucket () =
  (* All elements below t1. *)
  speedup_ok (Classify.make ~n:32 ~thresholds:(1000, 2000, 3000) ())

let test_classify_boundaries () =
  (* Elements sitting exactly on thresholds fall right of the bucket
     boundary (strict <). *)
  speedup_ok (Classify.make ~n:16 ~thresholds:(17, 34, 61) ())

let test_classify_minimum () = speedup_ok (Classify.make ~n:4 ())

let test_classify_rejects () =
  Alcotest.(check bool) "non-increasing thresholds" true
    (match Classify.make ~thresholds:(5, 5, 9) () with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Matmul ------------------------------------------------------------ *)

let test_matmul_seeds () =
  List.iter (fun seed -> checked (Matmul.make ~seed ()).ximd) [ 0; 1; 13; 42 ]

(* --- Iosync ------------------------------------------------------------ *)

let test_iosync_zero_latency () =
  (* Everything ready immediately: both variants still compute the right
     answers (the XIMD may even lose slightly — barrier overhead). *)
  let lat = { Iosync.first = 0; second = 0; third = 0 } in
  let w = Iosync.make ~p1_latencies:lat ~p2_latencies:lat () in
  checked w.ximd;
  match w.vliw with Some v -> checked v | None -> ()

let test_iosync_asymmetric () =
  (* One port very slow: the fast process finishes its inputs early and
     waits at the barrier. *)
  let slow = { Iosync.first = 100; second = 100; third = 100 } in
  let fast = { Iosync.first = 1; second = 1; third = 1 } in
  let w = Iosync.make ~p1_latencies:slow ~p2_latencies:fast () in
  speedup_ok w

let test_iosync_speedup_grows_with_latency () =
  let measure gap =
    let lat = { Iosync.first = gap; second = gap; third = gap } in
    match
      Compare.of_workload (Iosync.make ~p1_latencies:lat ~p2_latencies:lat ())
    with
    | Ok t -> Compare.speedup t
    | Error msg -> Alcotest.fail msg
  in
  let s10 = measure 10 and s80 = measure 80 in
  if s80 <= s10 then
    Alcotest.failf "speedup should grow with device latency: %.2f vs %.2f"
      s10 s80

(* --- TPROC -------------------------------------------------------------- *)

let test_tproc_extreme_values () =
  List.iter
    (fun (a, b, c, d) -> checked (Tproc.make ~a ~b ~c ~d ()).ximd)
    [ (0, 0, 0, 0); (-1, -1, -1, -1);
      (0x7fffffff, 1, 2, 3);            (* wraparound *)
      (123456, -654321, 999999, -1) ]

let suite =
  [ ( "workload-edges",
      [ Alcotest.test_case "minmax n=2" `Quick test_minmax_n2;
        Alcotest.test_case "minmax descending" `Quick test_minmax_descending;
        Alcotest.test_case "minmax ascending" `Quick test_minmax_ascending;
        Alcotest.test_case "minmax duplicates" `Quick test_minmax_duplicates;
        Alcotest.test_case "minmax 200 elements" `Quick test_minmax_large;
        Alcotest.test_case "minmax input validation" `Quick
          test_minmax_rejects_bad_data;
        Alcotest.test_case "livermore minimum sizes" `Quick
          test_livermore_minimum_sizes;
        Alcotest.test_case "livermore larger sizes" `Quick
          test_livermore_larger;
        Alcotest.test_case "livermore input validation" `Quick
          test_livermore_rejects_bad_n;
        Alcotest.test_case "ll12 cycle shape" `Quick test_ll12_cycle_shape;
        Alcotest.test_case "classify single bucket" `Quick
          test_classify_all_one_bucket;
        Alcotest.test_case "classify boundaries" `Quick
          test_classify_boundaries;
        Alcotest.test_case "classify minimum" `Quick test_classify_minimum;
        Alcotest.test_case "classify validation" `Quick test_classify_rejects;
        Alcotest.test_case "matmul seeds" `Quick test_matmul_seeds;
        Alcotest.test_case "iosync zero latency" `Quick
          test_iosync_zero_latency;
        Alcotest.test_case "iosync asymmetric" `Quick test_iosync_asymmetric;
        Alcotest.test_case "iosync latency scaling" `Quick
          test_iosync_speedup_grows_with_latency;
        Alcotest.test_case "tproc extreme values" `Quick
          test_tproc_extreme_values ] ) ]
