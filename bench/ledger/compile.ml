(* The [compile] workload: [Lang.compile] on examples/xc/{dot,gcd}.xc and
   [Codegen.compile] on the six Figure 13 kernels, at widths 4 and 8.
   The compiler passes do nearly all the work here and the engine almost
   none.  Each distinct output runs on every model and is checked
   against the IR interpreter on seeded inputs. *)

open Ximd_core
open Ximd_isa
module C = Ximd_compiler

let widths = [ 4; 8 ]
let sources = [ "dot"; "gcd" ]

type unit_ = {
  label : string;
  func : C.Ir.func;  (* what the interpreter runs *)
  text : string option;  (* the Lang source, when there is one *)
  compile : ?obs:C.Schedobs.t -> unit -> (C.Codegen.compiled, string list) result;
}

(* A compiled unit with its seeded inputs and one session per model. *)
type built = {
  unit_ : unit_;
  output : C.Codegen.compiled;
  runs : (Instance.target * Session.t * int ref) list;  (* expected cycles *)
}

let read_source name =
  let path = Printf.sprintf "examples/xc/%s.xc" name in
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> text
  | exception Sys_error e -> failwith ("ledger: " ^ e)

let units () =
  let xc =
    List.concat_map
      (fun name ->
        let text = read_source name in
        let func =
          match C.Lang.parse text with
          | Ok f -> f
          | Error e -> failwith (Format.asprintf "ledger: %s.xc: %a" name C.Lang.pp_error e)
        in
        List.map
          (fun width ->
            { label = Printf.sprintf "%s@%d" name width;
              func;
              text = Some text;
              compile = (fun ?obs () -> C.Lang.compile ~width ?obs text) })
          widths)
      sources
  in
  let kernels =
    List.concat_map
      (fun (func : C.Ir.func) ->
        List.map
          (fun width ->
            { label = Printf.sprintf "%s@%d" func.name width;
              func;
              text = None;
              compile = (fun ?obs () -> C.Codegen.compile ~width ?obs func) })
          widths)
      Ximd_report.Kernels.all
  in
  xc @ kernels

(* Seeded arguments and memory, shaped so every seed does the same
   amount of work: [dot] always sums 64 products, [gcd] always takes the
   Euclid steps of two consecutive Fibonacci numbers (scaled by a seeded
   factor, which is their gcd), and the kernels are straight-line code.
   Small positive kernel arguments keep base addresses in range, and
   memory words are themselves valid addresses because [chain] loads
   through them. *)
let inputs rng (func : C.Ir.func) =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match func.name with
  | "dot" ->
    let n = 64 in
    ( [ Value.of_int n ],
      List.concat
        (List.init n (fun i ->
           [ (400 + i, Value.of_int (int (-1000) 1000)); (500 + i, Value.of_int (int (-1000) 1000)) ]))
    )
  | "gcd" ->
    let m = int 1 90 in
    ([ Value.of_int (m * 10946); Value.of_int (m * 6765) ], [])
  | _ ->
    ( List.map (fun _ -> Value.of_int (int 1 64)) func.params,
      List.init 1024 (fun a -> (a, Value.of_int (int 0 1023))) )

let variant (out : C.Codegen.compiled) ~args ~mem (expected : C.Interp.outcome) model =
  let setup st =
    List.iter2 (fun (_, reg) a -> State.set_reg st (Reg.index reg) a) out.param_regs args;
    List.iter (fun (a, v) -> State.mem_set st a v) mem
  in
  let check st =
    let results = List.map (fun (_, reg) -> State.reg st (Reg.index reg)) out.result_regs in
    let mem_ok = Hashtbl.fold (fun a v ok -> ok && Value.equal (State.mem_get st a) v) expected.mem true in
    if List.length results = List.length expected.results
       && List.for_all2 Value.equal results expected.results && mem_ok
    then Ok ()
    else Error "compiled output disagrees with the interpreter"
  in
  { Ximd_workloads.Workload.sim =
      (if model = Engine.Per_fu then Ximd_workloads.Workload.Ximd else Ximd_workloads.Workload.Vliw);
    program = out.program;
    config = Config.make ~n_fus:out.width ~max_cycles:200_000 ();
    setup;
    check }

let compile_exn u =
  match u.compile () with
  | Ok out -> out
  | Error es -> failwith ("ledger: compile " ^ u.label ^ ": " ^ String.concat "; " es)

let build rng u =
  let output = compile_exn u in
  let args, mem = inputs rng u.func in
  let expected =
    match C.Interp.run u.func ~args ~mem with
    | Ok o -> o
    | Error e -> failwith ("ledger: interpreter on " ^ u.label ^ ": " ^ e)
  in
  let runs =
    List.map
      (fun model ->
        let v = variant output ~args ~mem expected model in
        ( { Instance.label = u.label; model; variant = v },
          Session.create ~config:v.config ~model v.program,
          ref 0 ))
      Instance.models
  in
  { unit_ = u; output; runs }

let run_checked tally ((t : Instance.target), session, expected) =
  let outcome = Session.run ~setup:t.variant.setup session in
  Measure.check tally
    (Instance.halted_cycles outcome = Some !expected
    && Result.is_ok (t.variant.check (Session.state session)))
    (fun () -> Printf.sprintf "%s/%s: %s" t.label (Instance.model_name t.model)
                 (Format.asprintf "%a" Run.pp outcome))

(* Every compile of a unit must reproduce its first output. *)
let check_output tally b (out : C.Codegen.compiled) =
  Measure.check tally (Program.equal_code out.program b.output.program) (fun () ->
    b.unit_.label ^ ": compiled output changed between compiles")

(* The passes [Schedobs] times, with '+' spelt '_' in metric names. *)
let passes =
  [ "lex"; "parse"; "lower"; "validate-ir"; "validate"; "regalloc"; "schedule_emit"; "loop-bounds" ]

let pass_metric p = "compiler.pass." ^ p ^ "_us"

let layer_units =
  [ ("compiler.parse_us", "us"); ("compiler.codegen_us", "us") ]
  @ List.map (fun p -> (pass_metric p, "us")) passes

(* Pass spans from a Schedobs Chrome export.  The collector's clock runs
   in nanoseconds scaled by 1e-6, so the export's integer microsecond
   fields carry nanoseconds. *)
let pass_spans obs =
  match Report.Json.parse (C.Schedobs.to_chrome obs) with
  | Error e -> failwith ("ledger: schedobs trace: " ^ e)
  | Ok j -> (
    match Report.Json.member "traceEvents" j with
    | Some (Report.Json.List events) ->
      List.filter_map
        (fun e ->
          match (Report.str "ph" e, Report.num "tid" e, Report.str "name" e, Report.num "dur" e) with
          | Some "X", Some 0.0, Some name, Some dur ->
            Some (String.map (fun c -> if c = '+' then '_' else c) name, dur)
          | _ -> None)
        events
    | _ -> [])

let setup scale ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let built = List.map (build rng) (units ()) in
  let n_units = List.length built in
  let all_runs = List.concat_map (fun b -> b.runs) built in
  let verify tally =
    let w0 = Gc.minor_words () in
    let outs = List.map (fun b -> compile_exn b.unit_) built in
    let words = Gc.minor_words () -. w0 in
    List.iter2 (check_output tally) built outs;
    List.iter
      (fun (t, session, expected) ->
        expected := Option.value (Instance.halted_cycles (Session.run ~setup:t.Instance.variant.setup session)) ~default:(-1);
        run_checked tally (t, session, expected))
      all_runs;
    let vsim =
      List.fold_left
        (fun acc ((t : Instance.target), _, c) -> if t.model = Engine.Global then acc + !c else acc)
        0 all_runs
    in
    { Instance.words_per_op = words /. float_of_int n_units;
      exact = [ ("compiled_cycles", float_of_int vsim) ] }
  in
  (* one sample covers [rounds] rounds over every unit: a single round
     takes a fraction of a millisecond *)
  let min_repeats, rounds =
    match (scale : Instance.scale) with Full -> (5, 32) | Tiny -> (1, 1)
  in
  (* compiles and runs of the outputs alternate, so both sample the
     whole run *)
  let run tally ~seconds =
    let samples =
      Instance.repeat_for ~seconds ~min_repeats (fun () ->
        let spent = ref 0.0 in
        let times = Instance.model_times () in
        for _ = 1 to rounds do
          List.iter
            (fun b ->
              let out, dt = Measure.time (fun () -> compile_exn b.unit_) in
              spent := !spent +. dt;
              check_output tally b out)
            built
        done;
        for _ = 1 to rounds do
          List.iter
            (fun ((t : Instance.target), session, expected) ->
              let (), dt = Measure.time (fun () -> run_checked tally (t, session, expected)) in
              let mt = List.assoc t.model times in
              mt.cycles <- mt.cycles + !expected;
              mt.seconds <- mt.seconds +. dt)
            all_runs
        done;
        (float_of_int (rounds * n_units) /. !spent, times))
    in
    Measure.rate ~name:"ops_per_s" ~unit_:"1/s" (List.map fst samples)
    :: Instance.mcps_metrics (List.map snd samples)
  in
  let trace tally ~seconds:_ =
    let reps = 20 in
    let median_us f = Measure.median (List.init reps (fun _ -> snd (Measure.time f) *. 1e6)) in
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
    let parse_us =
      List.filter_map
        (fun b -> Option.map (fun text -> median_us (fun () -> ignore (C.Lang.parse text))) b.unit_.text)
        built
    in
    let codegen_us =
      List.map
        (fun b -> median_us (fun () -> ignore (C.Codegen.compile ~width:b.output.width b.unit_.func)))
        built
    in
    let plain = List.map (fun b -> median_us (fun () -> ignore (b.unit_.compile ()))) built in
    let spans = ref [] in
    let clock () = Int64.to_float (Measure.now_ns ()) *. 1e-6 in
    let traced =
      List.map
        (fun b ->
          Measure.median
            (List.init reps (fun _ ->
               let obs = C.Schedobs.create ~clock () in
               let out, dt = Measure.time (fun () -> b.unit_.compile ~obs ()) in
               (* an observed compile must emit the same program *)
               Measure.check tally
                 (match out with Ok o -> Program.equal_code o.program b.output.program | Error _ -> false)
                 (fun () -> b.unit_.label ^ ": observed compile changed the output");
               spans := pass_spans obs @ !spans;
               dt *. 1e6)))
        built
    in
    let pass name =
      let durs = List.filter_map (fun (n, d) -> if n = name then Some (d /. 1e3) else None) !spans in
      if durs = [] then 0.0 else mean durs
    in
    let m = Measure.exact in
    [ m "compiler.parse_us" "us" (mean parse_us); m "compiler.codegen_us" "us" (mean codegen_us) ]
    @ List.map (fun p -> m (pass_metric p) "us" (pass p)) passes
    @ [ m "trace_overhead" "ratio" (List.fold_left ( +. ) 0.0 traced /. List.fold_left ( +. ) 0.0 plain) ]
  in
  { Instance.verify;
    run;
    targets = List.map (fun (t, _, _) -> t) all_runs;
    trace;
    close = ignore }
