(* Host-side measurement: a nanosecond monotonic clock, order
   statistics over repeated samples, and the metric record every ledger
   report is made of. *)

(* Bound to the C stub of bechamel's monotonic clock directly:
   [Monotonic_clock.now] returns a boxed int64, which would put three
   words on the minor heap inside every allocation window. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* The clock in seconds, for the library collectors ([Farmobs]) that
   take an injected clock. *)
let clock_s () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s t0)

(* Linear-interpolation quantile of a sorted, non-empty array. *)
let quantile sorted p =
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

let median samples = quantile (sorted_copy samples) 0.5

(* A reported metric: one figure for [n] samples (the median, or the
   upper decile for a throughput) and their quartiles; [q1 = q3 = value]
   for a single, exactly repeating figure. *)
type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  n : int;
}

let of_samples ~name ~unit_ = function
  | [] -> invalid_arg ("Measure.of_samples: no samples for " ^ name)
  | samples ->
    let s = sorted_copy samples in
    { name; unit_; value = quantile s 0.5; q1 = quantile s 0.25;
      q3 = quantile s 0.75; n = Array.length s }

(* A throughput: the fastest of the per-repeat rates, with the
   quartiles kept.  Interference from other tenants of a shared host
   only ever slows a repeat, so the fastest repeat is the closest to the
   undisturbed speed.  On a 2-vCPU VM whose other tenants slowed whole
   runs by up to 45%, control's fastest repeat spread 7% over six seeds,
   its upper decile 18% and its median 28%. *)
let rate ~name ~unit_ samples =
  let m = of_samples ~name ~unit_ samples in
  { m with value = List.fold_left Float.max neg_infinity samples }

let exact name unit_ value = { name; unit_; value; q1 = value; q3 = value; n = 1 }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Pass/fail bookkeeping for every checked operation of a run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 10 then prerr_endline ("ledger: check failed: " ^ what ())
  end
