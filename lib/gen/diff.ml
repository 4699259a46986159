open Ximd_isa
module Core = Ximd_core
module Interp = Ximd_ref.Interp
module Observation = Ximd_ref.Observation

(* Lockstep differential checking: run a program through the reference
   interpreter and through the optimised engine under every applicable
   sequencing model, and compare everything architecturally observable —
   per-cycle control traces, final registers, the non-zero memory
   footprint, the I/O output log, the hazard log and the outcome — and
   the paper's run counters ({!Core.Stats}), which the reference keeps
   by its own rules.

   Both sides run with the [Record] hazard policy and no watchdog, so a
   run always ends in [Halted] or [Fuel_exhausted] — deterministic on
   both sides.  (The watchdog's deadlock-establishment cycle is an
   implementation choice, not an architectural one, so it is outside the
   conformance surface.) *)

type model = Interp.model = Per_fu | Global | Banked

(* The oracle keeps its own model type (lib/ref shares no definitions
   with the engine); this is the one place the two meet. *)
let engine_model = function
  | Per_fu -> Core.Engine.Per_fu
  | Global -> Core.Engine.Global
  | Banked -> Core.Engine.Banked

let all_models = [ Per_fu; Global; Banked ]
let model_name model = Core.Engine.model_name (engine_model model)

let model_of_name name =
  List.find_opt (fun m -> model_name m = name) all_models

(* The models a program can structurally run under: those whose
   session check passes. *)
let applicable_models program =
  List.filter
    (fun m -> Result.is_ok (Core.Session.check (engine_model m) program))
    all_models

(* ------------------------------------------------------------------ *)
(* Engine-side observation                                             *)

let observe_engine model program (config : Core.Config.t) =
  let config =
    { config with Core.Config.hazard_policy = Ximd_machine.Hazard.Record }
  in
  let session =
    Core.Session.create ~config ~model:(engine_model model) program
  in
  let tracer = Core.Tracer.create () in
  let outcome = Core.Session.run ~tracer session in
  let state = Core.Session.state session in
  let memory = ref [] in
  for addr = config.mem_words - 1 downto 0 do
    let v = Core.State.mem_get state addr in
    if not (Value.equal v Value.zero) then memory := (addr, v) :: !memory
  done;
  { Observation.outcome;
    registers = Ximd_machine.Regfile.dump state.regs;
    memory = !memory;
    io_out =
      List.filter_map
        (fun port ->
          match Ximd_machine.Ioport.output state.io ~port with
          | [] -> None
          | writes -> Some (port, writes))
        (List.init config.n_ports (fun p -> p));
    hazards =
      List.map
        (fun (e : Ximd_machine.Hazard.event) ->
          (e.cycle, Ximd_machine.Hazard.to_string e.hazard))
        (Ximd_machine.Hazard.events state.log);
    trace =
      List.map
        (fun (r : Core.Tracer.row) ->
          { Observation.cycle = r.cycle;
            pcs = r.pcs;
            ccs = r.ccs;
            sss = r.sss;
            ssets = Core.Partition.ssets r.partition })
        (Core.Tracer.rows tracer);
    counts =
      (let st = state.stats in
       { Observation.cycles = st.cycles;
         data_ops = st.data_ops;
         nops = st.nops;
         halted_slots = st.halted_slots;
         spin_slots = st.spin_slots;
         cond_branches = st.cond_branches;
         max_streams = st.max_streams }) }

let observe_reference model program config =
  Interp.run ~model ~config program

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type divergence = {
  model : model;
  first_cycle : int option;
      (* first cycle whose control trace rows disagree, if any *)
  detail : string;  (* one line naming the first mismatching field *)
  reference : Observation.t;
  engine : Observation.t;
}

type verdict =
  | Agree of { models : model list }
  | Diverge of divergence

(* First trace mismatch, if any: (cycle, what differs). *)
let first_trace_divergence (a : Observation.t) (b : Observation.t) =
  let rec scan = function
    | [], [] -> None
    | (ra : Observation.row) :: _, [] -> Some (ra.cycle, "trace ends early on engine side")
    | [], (rb : Observation.row) :: _ -> Some (rb.cycle, "trace ends early on reference side")
    | ra :: ta, rb :: tb ->
      if Observation.row_equal ra rb then scan (ta, tb)
      else
        Some
          ( ra.cycle,
            Format.asprintf "@[<v>reference: %a@,engine:    %a@]"
              Observation.pp_row ra Observation.pp_row rb )
  in
  scan (a.trace, b.trace)

let registers_delta (a : Observation.t) (b : Observation.t) =
  let out = ref [] in
  Array.iteri
    (fun i va ->
      let vb = b.registers.(i) in
      if not (Value.equal va vb) then out := (i, va, vb) :: !out)
    a.registers;
  List.rev !out

let memory_delta (a : Observation.t) (b : Observation.t) =
  let addrs =
    List.sort_uniq compare (List.map fst a.memory @ List.map fst b.memory)
  in
  List.filter_map
    (fun addr ->
      let get m = Option.value ~default:Value.zero (List.assoc_opt addr m) in
      let va = get a.memory and vb = get b.memory in
      if Value.equal va vb then None else Some (addr, va, vb))
    addrs

let compare_observations model (reference : Observation.t)
    (engine : Observation.t) =
  let diverge detail first_cycle =
    Some { model; first_cycle; detail; reference; engine }
  in
  let trace_div = first_trace_divergence reference engine in
  match trace_div with
  | Some (cycle, what) ->
    diverge (Printf.sprintf "trace divergence at cycle %d:\n%s" cycle what)
      (Some cycle)
  | None ->
    if
      Observation.outcome_string reference.outcome
      <> Observation.outcome_string engine.outcome
    then
      diverge
        (Printf.sprintf "outcome: reference %s, engine %s"
           (Observation.outcome_string reference.outcome)
           (Observation.outcome_string engine.outcome))
        None
    else (
      match registers_delta reference engine with
      | (r, va, vb) :: _ ->
        diverge
          (Printf.sprintf "register r%d: reference %ld, engine %ld" r
             (Value.to_int32 va) (Value.to_int32 vb))
          None
      | [] -> (
        match memory_delta reference engine with
        | (addr, va, vb) :: _ ->
          diverge
            (Printf.sprintf "memory[%d]: reference %ld, engine %ld" addr
               (Value.to_int32 va) (Value.to_int32 vb))
            None
        | [] ->
          if reference.io_out <> engine.io_out then
            diverge "I/O output logs differ" None
          else if reference.hazards <> engine.hazards then
            diverge
              (Printf.sprintf
                 "hazard logs differ: reference has %d, engine has %d"
                 (List.length reference.hazards)
                 (List.length engine.hazards))
              None
          else
            match Observation.counts_diff reference.counts engine.counts with
            | Some (name, r, e) ->
              diverge
                (Printf.sprintf "stats %s: reference %d, engine %d" name r e)
                None
            | None -> None))

let check_model model program config =
  let reference = observe_reference model program config in
  let engine = observe_engine model program config in
  compare_observations model reference engine

let check ?models (program : Core.Program.t) (config : Core.Config.t) =
  (match Core.Program.validate program config with
   | Ok () -> ()
   | Error errors ->
     invalid_arg ("Diff.check: invalid program:\n" ^ String.concat "\n" errors));
  let models =
    match models with
    | Some ms -> List.filter (fun m -> List.mem m (applicable_models program)) ms
    | None -> applicable_models program
  in
  let rec go = function
    | [] -> Agree { models }
    | m :: rest -> (
      match check_model m program config with
      | None -> go rest
      | Some d -> Diverge d)
  in
  go models

let check_case (c : Proggen.case) = check c.program c.config

(* ------------------------------------------------------------------ *)
(* Divergence reports                                                  *)

let pp_side fmt (label, (o : Observation.t)) =
  Format.fprintf fmt "@[<v2>%s:@,%a@]" label
    (fun fmt () ->
      Format.fprintf fmt "outcome: %s@,"
        (Observation.outcome_string o.outcome);
      List.iter
        (fun r -> Format.fprintf fmt "%a@," Observation.pp_row r)
        o.trace)
    ()

let pp_divergence fmt (d : divergence) =
  Format.fprintf fmt "@[<v>model: %s@," (model_name d.model);
  (match d.first_cycle with
   | Some c -> Format.fprintf fmt "first divergent cycle: %d@," c
   | None -> Format.fprintf fmt "traces agree; final state differs@,");
  Format.fprintf fmt "%s@," d.detail;
  (match registers_delta d.reference d.engine with
   | [] -> ()
   | delta ->
     Format.fprintf fmt "@[<v2>register delta (reference vs engine):@,";
     List.iter
       (fun (r, va, vb) ->
         Format.fprintf fmt "r%d: %ld vs %ld@," r (Value.to_int32 va)
           (Value.to_int32 vb))
       delta;
     Format.fprintf fmt "@]@,");
  (match memory_delta d.reference d.engine with
   | [] -> ()
   | delta ->
     Format.fprintf fmt "@[<v2>memory delta (reference vs engine):@,";
     List.iter
       (fun (addr, va, vb) ->
         Format.fprintf fmt "[%d]: %ld vs %ld@," addr (Value.to_int32 va)
           (Value.to_int32 vb))
       delta;
     Format.fprintf fmt "@]@,");
  Format.fprintf fmt "%a@,%a@]" pp_side ("reference trace", d.reference)
    pp_side
    ("engine trace", d.engine)

let divergence_to_string d = Format.asprintf "%a" pp_divergence d
