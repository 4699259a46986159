open Ximd_core

type simulator = Ximd | Vliw

type variant = {
  sim : simulator;
  program : Program.t;
  config : Config.t;
  setup : State.t -> unit;
  check : State.t -> (unit, string) result;
}

type t = {
  name : string;
  description : string;
  ximd : variant;
  vliw : variant option;
}

let model = function Ximd -> Engine.Per_fu | Vliw -> Engine.Global

let run ?tracer ?watchdog ?obs variant =
  let s =
    Session.create ~config:variant.config ?obs ~model:(model variant.sim)
      variant.program
  in
  let outcome = Session.run ?tracer ?watchdog ~setup:variant.setup s in
  (outcome, Session.state s)

let run_checked ?tracer ?watchdog ?obs variant =
  let outcome, state = run ?tracer ?watchdog ?obs variant in
  match outcome with
  | Run.Fuel_exhausted { cycles } ->
    Error (Printf.sprintf "fuel exhausted after %d cycles" cycles)
  | Run.Deadlocked { cycles; _ } ->
    Error (Printf.sprintf "deadlocked after %d cycles" cycles)
  | Run.Budget_exceeded { cycles; budget } ->
    Error
      (Printf.sprintf "cycle budget of %d exceeded after %d cycles" budget
         cycles)
  | Run.Halted _ -> (
    match variant.check state with
    | Ok () -> Ok (outcome, state)
    | Error msg -> Error ("check failed: " ^ msg))
