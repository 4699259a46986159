(* The [control] and [dataflow] workloads: the paper's programs, scaled
   up with seeded data, each run on its own reused session as its XIMD
   coding under xsim and its VLIW coding under vsim and t500. *)

open Ximd_core
module W = Ximd_workloads

type run = {
  target : Instance.target;
  session : Session.t;
  mutable cycles : int;  (* the verified cycle count every run must repeat *)
}

let targets_of (w : W.Workload.t) =
  let vliw =
    match w.vliw with
    | Some v -> v
    | None -> invalid_arg ("ledger: workload without a VLIW coding: " ^ w.name)
  in
  [ { Instance.label = w.name; model = Engine.Per_fu; variant = w.ximd };
    { Instance.label = w.name; model = Engine.Global; variant = vliw };
    { Instance.label = w.name; model = Engine.Banked; variant = vliw } ]

(* Control-parallel programs: forks and joins every few cycles. *)
let control_programs scale rng =
  let minmax_n, classify_n, bitcount_n =
    match (scale : Instance.scale) with
    | Full -> (20_000, 16_384, 508)
    | Tiny -> (200, 256, 20)
  in
  let minmax =
    Array.init minmax_n (fun _ -> Random.State.int rng 2_000_001 - 1_000_000)
  in
  let t1 = 5 + Random.State.int rng 25 in
  let t2 = t1 + 5 + Random.State.int rng 25 in
  let t3 = t2 + 5 + Random.State.int rng 25 in
  (* words of every bit width, so the inner loops run 0 to 32 passes *)
  let word _ =
    let width = Random.State.int rng 33 in
    let bits = Random.State.bits32 rng in
    if width = 32 then bits
    else Int32.logand bits (Int32.pred (Int32.shift_left 1l width))
  in
  let bitcount = Array.init (bitcount_n + 1) (fun i -> if i = 0 then 0l else word i) in
  [ W.Minmax.make ~data:minmax ();
    W.Classify.make ~n:classify_n ~thresholds:(t1, t2, t3) ();
    W.Bitcount.make ~data:bitcount () ]

(* One synchronous stream on busy FUs: the data path dominates. *)
let dataflow_programs scale rng =
  let n = match (scale : Instance.scale) with Full -> 4000 | Tiny -> 64 in
  [ W.Livermore.loop1 ~n ();
    W.Livermore.loop3 ~n ();
    W.Livermore.loop5 ~n ();
    W.Livermore.loop12 ~n ();
    W.Matmul.make ~seed:(Random.State.int rng 1_000_000) () ]

let run_once r = Session.run ~setup:r.target.variant.setup r.session

let check_run tally r outcome =
  Measure.check tally
    (Instance.halted_cycles outcome = Some r.cycles
    && Result.is_ok (r.target.variant.check (Session.state r.session)))
    (fun () ->
      Printf.sprintf "%s/%s: %s" r.target.label
        (Instance.model_name r.target.model)
        (Format.asprintf "%a" Run.pp outcome))

let setup programs =
  let targets = List.concat_map targets_of programs in
  let runs =
    Array.of_list
      (List.map
         (fun (t : Instance.target) ->
           { target = t;
             session =
               Session.create ~config:t.variant.config ~model:t.model
                 t.variant.program;
             cycles = 0 })
         targets)
  in
  let n_runs = Array.length runs in
  let verify tally =
    let w0 = Gc.minor_words () in
    let outcomes = Array.map run_once runs in
    let words = Gc.minor_words () -. w0 in
    let sum model =
      Array.fold_left
        (fun acc r -> if r.target.model = model then acc + r.cycles else acc)
        0 runs
    in
    Array.iteri
      (fun i r ->
        r.cycles <- Option.value (Instance.halted_cycles outcomes.(i)) ~default:(-1);
        check_run tally r outcomes.(i))
      runs;
    let xsim = sum Engine.Per_fu and vsim = sum Engine.Global in
    { Instance.words_per_op = words /. float_of_int n_runs;
      exact =
        [ ("sim_cycles", float_of_int (xsim + vsim + sum Engine.Banked));
          ("speedup", float_of_int vsim /. float_of_int xsim) ] }
  in
  let run tally ~seconds =
    let repeats =
      Instance.repeat_for ~seconds ~min_repeats:5 (fun () ->
        let times = Instance.model_times () in
        let total = ref 0.0 in
        Array.iter
          (fun r ->
            let outcome, dt = Measure.time (fun () -> run_once r) in
            let t = List.assoc r.target.model times in
            t.cycles <- t.cycles + r.cycles;
            t.seconds <- t.seconds +. dt;
            total := !total +. dt;
            check_run tally r outcome)
          runs;
        (times, float_of_int n_runs /. !total))
    in
    Measure.rate ~name:"ops_per_s" ~unit_:"1/s" (List.map snd repeats)
    :: Instance.mcps_metrics (List.map fst repeats)
  in
  { Instance.verify;
    run;
    targets;
    trace = (fun _ ~seconds:_ -> []);
    close = ignore }

let rng seed salt = Random.State.make [| seed; salt |]

let control scale ~seed = setup (control_programs scale (rng seed 1))
let dataflow scale ~seed = setup (dataflow_programs scale (rng seed 2))
