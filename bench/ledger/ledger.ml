(* The repository benchmark: a layered performance ledger.

   Usage (from the repository root):
     ledger.exe run   [--workload W|all] [--seed N] [--seconds S]
         end-to-end metrics, one ximd-ledger/1 report line per workload
     ledger.exe trace [--workload W|all] [--seed N] [--seconds S]
         a separate traced run: per-layer metrics
     ledger.exe bench --workload W --seed N --seconds S --trace 0|1
         one run or trace, then the one-line benchmark result
     ledger.exe diff BEFORE AFTER [--root DIR]
         compares two report sets under the BENCHMARK.json bounds; a file
         may hold several runs of a workload (append them), read as the
         median of the runs
     ledger.exe smoke [--root DIR]
         tiny counts: every metric is emitted with its unit and no check fails
     ledger.exe reference [--root DIR]
         prints the per-seed exact facts for bench/ledger/reference.json

   Workloads: control, dataflow, campaign, compile.  Seed 1 is the
   default; seed 2 is held out for checking gain claims.  [--root] is
   the repository root (default: the current directory): every command
   but [diff] works from there. *)

let workloads : (string * (Instance.scale -> seed:int -> Instance.t)) list =
  [ ("control", Sims.control);
    ("dataflow", Sims.dataflow);
    ("campaign", Campaign.setup);
    ("compile", Compile.setup) ]

let setups = 11
let reference_seeds = [ 1; 2 ]

let run_report ~scale ~seed ~seconds name =
  let setup = List.assoc name workloads in
  let tally = Measure.tally () in
  let inst, first = Measure.time (fun () -> setup scale ~seed) in
  let verified = inst.Instance.verify tally in
  (* the peak of the set-up and the checked pass: the timed loop's own
     peak depends on when the worker domains' collections happen to run *)
  let heap_peak_mb = Measure.heap_peak_mb () in
  let rates = inst.run tally ~seconds in
  inst.close ();
  (* The other set-ups run back to back after the timed loop, each
     closed before the next starts, so no two farms ever live at once.
     The loop's garbage is collected first: like the first set-up, they
     start from a heap with nothing to collect. *)
  Gc.full_major ();
  let setup_times =
    first
    :: List.init (setups - 1) (fun _ ->
         let spare, dt = Measure.time (fun () -> setup scale ~seed) in
         spare.close ();
         dt)
  in
  let metrics =
    (Measure.of_samples ~name:"setup_s" ~unit_:"s" setup_times :: rates)
    @ [ Measure.exact "minor_words_per_op" "words" verified.words_per_op;
        Measure.exact "heap_peak_mb" "MB" heap_peak_mb ]
  in
  let r =
    { Report.mode = "run"; workload = name; seed; seconds; tally; metrics;
      exact = verified.exact; breakdown = Measure.tally () }
  in
  if scale = Instance.Full then Report.check_reference r;
  r

(* Every per-layer metric, in report order; a workload that never calls
   a layer reports 0 for it. *)
let layer_units =
  let engine m =
    let p = "engine." ^ Instance.model_name m ^ "." in
    ((p ^ "step_ns", "ns") :: List.map (fun ph -> (p ^ ph ^ "_ns", "ns")) Layers.phases)
    @ ((p ^ "step_words", "words") :: List.map (fun ph -> (p ^ ph ^ "_words", "words")) Layers.phases)
    @ [ (p ^ "own_words", "words"); (p ^ "explained_frac", "ratio");
        (p ^ "partition_change_frac", "ratio") ]
  in
  List.concat_map engine Instance.models
  @ List.map (fun s -> ("session." ^ s ^ "_us", "us")) [ "create"; "reset"; "setup"; "run" ]
  @ List.map (fun a -> ("obs." ^ a ^ ".overhead", "ratio")) Layers.attachments
  @ [ ("asm.parse_us", "us") ]
  @ Campaign.layer_units @ Compile.layer_units
  @ [ ("trace_overhead", "ratio") ]

let trace_report ~scale ~seed ~seconds name =
  let tally = Measure.tally () and breakdown = Measure.tally () in
  let inst = (List.assoc name workloads) scale ~seed in
  ignore (inst.verify tally);
  (* the campaign's own farm idles through the trace: close it first *)
  inst.close ();
  let common, engine_overhead =
    Layers.common ~strict:(scale = Instance.Full) ~tally ~breakdown inst.targets
  in
  let own = inst.trace tally ~seconds in
  let measured = common @ own in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Measure.metric) -> m.name = name) measured with
        | Some m -> m
        | None when name = "trace_overhead" ->
          Measure.exact name unit_ engine_overhead
        | None -> Measure.exact name unit_ 0.0)
      layer_units
  in
  { Report.mode = "trace"; workload = name; seed; seconds; tally; metrics; exact = [];
    breakdown }

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: ledger.exe (run|trace) [--workload W|all] [--seed N] [--seconds S] [--root DIR]\n\
    \       ledger.exe bench --workload W --seed N --seconds S --trace 0|1 [--root DIR]\n\
    \       ledger.exe diff BEFORE AFTER [--root DIR]\n\
    \       ledger.exe smoke [--root DIR]\n\
    \       ledger.exe reference [--root DIR]";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 1) fmt

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable root : string;
  mutable files : string list;
}

let parse_opts args =
  let o =
    { workload = "all"; seed = 1; seconds = 10.0; trace = false; root = "."; files = [] }
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> fail "%s: not an integer: %s" k v in
  let rec go = function
    | "--workload" :: v :: rest -> o.workload <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- s; go rest
      | _ -> fail "--seconds: not a positive number: %s" v)
    | "--trace" :: v :: rest -> o.trace <- int_arg "--trace" v <> 0; go rest
    | "--root" :: v :: rest -> o.root <- v; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' -> o.files <- o.files @ [ v ]; go rest
    | [] -> ()
    | v :: _ -> fail "unknown argument %s" v
  in
  go args;
  o

let selected o =
  if o.workload = "all" then List.map fst workloads
  else if List.mem_assoc o.workload workloads then [ o.workload ]
  else fail "unknown workload %s (have: %s)" o.workload (String.concat ", " (List.map fst workloads))

let load_spec o =
  match Report.load_spec (Filename.concat o.root "BENCHMARK.json") with
  | Ok s -> s
  | Error e -> fail "%s" e

let print json = print_endline (Report.Json.to_string json)

let smoke o =
  let spec = load_spec o in
  let names (ms : Measure.metric list) =
    List.sort compare (List.map (fun (m : Measure.metric) -> (m.name, m.unit_)) ms)
  in
  let spec_names l =
    List.sort compare (List.map (fun (m : Report.spec_metric) -> (m.s_name, m.s_unit)) l)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      let run = run_report ~scale:Tiny ~seed:o.seed ~seconds:0.02 w in
      let trace = trace_report ~scale:Tiny ~seed:o.seed ~seconds:0.02 w in
      List.iter
        (fun ((r : Report.t), expected) ->
          if names r.metrics <> expected then
            problem "%s %s: metric names or units differ from BENCHMARK.json" w r.mode;
          if Report.failed_frac r <> 0.0 then problem "%s %s: failed_frac %g" w r.mode (Report.failed_frac r);
          if r.breakdown.failed > 0 then
            Printf.eprintf "ledger smoke: warning: %s: the engine breakdown no longer adds up\n" w;
          List.iter
            (fun (m : Measure.metric) ->
              if not (Float.is_finite m.value) then problem "%s: %s is not finite" w m.name;
              if r.mode = "run" && m.value <= 0.0 then problem "%s: %s is not positive" w m.name)
            r.metrics)
        [ (run, spec_names spec.end_to_end); (trace, spec_names spec.per_layer) ])
    (List.map fst workloads);
  match !problems with
  | [] -> print_endline "ledger smoke: ok"
  | ps -> List.iter prerr_endline (List.rev ps); exit 1

let diff o =
  let spec = load_spec o in
  match o.files with
  | [ a; b ] -> (
    match (Report.parse_reports a, Report.parse_reports b) with
    | Ok before, Ok after ->
      if after = [] then fail "%s holds no ledger report" b;
      let rows, bad = Report.diff ~spec before after in
      List.iter
        (fun (w, name, va, vb, v) ->
          let change = if va = 0.0 || Float.is_nan va then "" else Printf.sprintf "%+.1f%%" (100.0 *. (vb -. va) /. Float.abs va) in
          Printf.printf "%-9s %-36s %14.6g %14.6g %8s  %s\n" w name va vb change
            (Report.verdict_name v))
        rows;
      if bad > 0 then exit 1
    | Error e, _ | _, Error e -> fail "%s" e)
  | _ -> usage ()

let reference () =
  print
    (Report.reference_json
       (List.map
          (fun (w, setup) ->
            ( w,
              List.map
                (fun seed ->
                  let tally = Measure.tally () in
                  let inst = setup Instance.Full ~seed in
                  let v = inst.Instance.verify tally in
                  inst.close ();
                  if tally.failed > 0 then fail "%s seed %d: checks failed" w seed;
                  (seed, v.exact))
                reference_seeds ))
          workloads))

(* Each workload of a set runs in a process of its own, so one cannot
   inherit another's heap peak or collector state. *)
let each_in_own_process cmd o workloads =
  let status =
    List.fold_left
      (fun worst w ->
        let args =
          [| Sys.executable_name; cmd; "--workload"; w; "--seed"; string_of_int o.seed;
             "--seconds"; Printf.sprintf "%.17g" o.seconds |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> worst
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 1)
      0 workloads
  in
  exit status

(* One report.  [bench] adds the result line and fails only on
   wrong outputs; [trace] also fails when the layer breakdown no longer
   adds up. *)
let report cmd o w =
  let traced = cmd = "trace" || (cmd = "bench" && o.trace) in
  let r =
    (if traced then trace_report else run_report)
      ~scale:Instance.Full ~seed:o.seed ~seconds:o.seconds w
  in
  print (Report.to_json r);
  if cmd = "bench" then print (Report.result_json r);
  if not (Report.correct r && (cmd = "bench" || r.breakdown.failed = 0)) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
    let o = parse_opts args in
    (* The workloads name the repository's files by relative path, as a
       campaign job's [file] is resolved against the working directory. *)
    let at_root () =
      (try Sys.chdir o.root with Sys_error e -> fail "%s" e);
      o.root <- "."
    in
    match (cmd, selected o) with
    | ("run" | "trace" | "bench"), [ w ] -> at_root (); report cmd o w
    | ("run" | "trace"), ws -> at_root (); each_in_own_process cmd o ws
    | "bench", _ -> fail "bench needs one --workload"
    | "diff", _ -> diff o
    | "smoke", _ -> at_root (); smoke o
    | "reference", _ -> at_root (); reference ()
    | _ -> usage ())
  | _ -> usage ()
