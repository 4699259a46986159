(* What every ledger workload provides once it is set up.  [Ledger]
   times [setup], then calls [verify] (one untimed, checked pass), then
   [run] or [trace]. *)

open Ximd_core

type scale =
  | Full  (** the benchmark's sizes *)
  | Tiny  (** the smoke test's sizes: same code paths, tiny counts *)

(* One program a workload runs on the engine, under one sequencing
   model.  The layer probes replay these. *)
type target = {
  label : string;
  model : Engine.model;
  variant : Ximd_workloads.Workload.variant;
}

let models = [ Engine.Per_fu; Engine.Global; Engine.Banked ]
let model_name = Ximd_farm.Job.model_name

type verified = {
  words_per_op : float;  (** [Gc.minor_words] per operation *)
  exact : (string * float) list;
      (** simulated facts that must repeat exactly for a seed *)
}

type t = {
  verify : Measure.tally -> verified;
  run : Measure.tally -> seconds:float -> Measure.metric list;
      (** [ops_per_s] and the per-model [*_mcps] rates *)
  targets : target list;
  trace : Measure.tally -> seconds:float -> Measure.metric list;
      (** the workload's own layers (farm, compiler) and, when its
          traced path is not the engine, [trace_overhead] *)
  close : unit -> unit;
}

(* Cycles and host seconds one repeat spent under each model. *)
type model_time = { mutable cycles : int; mutable seconds : float }

let model_times () = List.map (fun m -> (m, { cycles = 0; seconds = 0.0 })) models

(* Per-model simulated megacycles per host second, one sample per
   repeat.  A model a repeat never ran contributes no sample. *)
let mcps_metrics (repeats : (Engine.model * model_time) list list) =
  List.map
    (fun m ->
      let samples =
        List.filter_map
          (fun times ->
            let t = List.assoc m times in
            if t.cycles > 0 && t.seconds > 0.0 then
              Some (float_of_int t.cycles /. t.seconds /. 1e6)
            else None)
          repeats
      in
      Measure.rate ~name:(model_name m ^ "_mcps") ~unit_:"Mcycle/s"
        samples)
    models

(* Repeats [f] until [seconds] have passed, at least [min_repeats]
   times; returns the per-repeat results in order. *)
let repeat_for ~seconds ~min_repeats f =
  let t0 = Measure.now_ns () in
  let rec loop acc k =
    if k >= min_repeats && Measure.elapsed_s t0 >= seconds then List.rev acc
    else begin
      let r = f () in
      loop (r :: acc) (k + 1)
    end
  in
  loop [] 0

let halted_cycles = function
  | Run.Halted { cycles } -> Some cycles
  | Run.Fuel_exhausted _ | Run.Deadlocked _ | Run.Budget_exceeded _ -> None
