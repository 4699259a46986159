type t = {
  state : State.t;
  model : Engine.model;
}

let create ?config ?faults ?obs ~model program =
  { state = State.create ?config ?faults ?obs program; model }

let state t = t.state

(* The models' structural requirements, checked once per run (not per
   step).  The messages keep the names of the simulators that first
   raised them; the serve campaign golden pins the bank-consistency
   one. *)
let validate model (state : State.t) =
  match (model : Engine.model) with
  | Per_fu -> ()
  | Global ->
    if not (Program.control_consistent state.program) then
      invalid_arg
        "Vsim.run: program is not control-consistent (VLIW programs must \
         duplicate the control fields in every parcel of a row)"
  | Banked ->
    let n = State.n_fus state in
    if n < 2 || n mod 2 <> 0 then
      invalid_arg "T500.run: the two-sequencer model needs an even FU count";
    if not (Engine.bank_consistent state.program) then
      invalid_arg
        "T500.run: program is not bank-consistent (each bank has a single \
         sequencer; XIMD programs with finer partitions cannot run)"

(* How often the supervision poll fires, in cycles.  A power of two so
   the check is one mask on the hot path; the first poll lands on
   cycle 0, before any work, so a poll that raises (a wall-clock
   deadline already in the past) stops even a one-cycle run. *)
let poll_period = 512

(* Every run starts from the same point: rewind, apply the caller's
   initialisation, go.  Resetting a freshly created state is a semantic
   no-op, so the first run is indistinguishable from a run on a
   one-shot state.  The tracer row is recorded just before each step:
   the start-of-cycle state the sink's [on_partition] also samples. *)
let run ?tracer ?watchdog ?budget ?poll ?program ?setup t =
  let state = t.state in
  State.reset ?program state;
  (match setup with None -> () | Some f -> f state);
  validate t.model state;
  let fuel = state.config.max_cycles in
  (* The budget is a per-run limit below the configured fuel; a budget
     at or above the fuel never fires (fuel wins). *)
  let budget_limit =
    match budget with
    | None -> max_int
    | Some b ->
      if b < 1 then invalid_arg "Session.run: budget must be positive";
      b
  in
  let rec loop () =
    if State.all_halted state then begin
      Exec.drain_pipeline state;
      state.stats.cycles <- state.cycle;
      Run.Halted { cycles = state.cycle }
    end
    else if state.cycle >= fuel then
      Run.Fuel_exhausted { cycles = state.cycle }
    else if state.cycle >= budget_limit then
      Run.Budget_exceeded { cycles = state.cycle; budget = budget_limit }
    else begin
      (match poll with
       | Some f when state.cycle land (poll_period - 1) = 0 -> f ()
       | Some _ | None -> ());
      (match tracer with
       | Some tr -> Tracer.record tr (Tracer.snapshot state)
       | None -> ());
      Engine.step t.model state;
      match watchdog with
      | Some w when Watchdog.observe w state ->
        (match state.obs with
         | Some obs ->
           Ximd_obs.Sink.on_watchdog obs ~cycle:state.cycle
             ~quiet:(Watchdog.window w)
         | None -> ());
        Watchdog.deadlocked state
      | Some _ | None -> loop ()
    end
  in
  let outcome = loop () in
  (match state.obs with
   | Some obs -> Ximd_obs.Sink.finish obs ~cycle:state.cycle
   | None -> ());
  outcome
