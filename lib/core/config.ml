type sequencer = Research | Prototype

type t = {
  n_fus : int;
  mem_words : int;
  mem_organisation : Ximd_machine.Memory.organisation;
  n_ports : int;
  hazard_policy : Ximd_machine.Hazard.policy;
  max_cycles : int;
  sequencer : sequencer;
  result_latency : int;
}

let default =
  { n_fus = 8;
    mem_words = 65536;
    mem_organisation = Ximd_machine.Memory.Shared;
    n_ports = 16;
    hazard_policy = Ximd_machine.Hazard.Raise;
    max_cycles = 1_000_000;
    sequencer = Research;
    result_latency = 1 }

let validate t =
  if t.n_fus < 1 || t.n_fus > 16 then
    invalid_arg "Config.make: n_fus must be in [1, 16]";
  if t.mem_words <= 0 then
    invalid_arg "Config.make: mem_words must be positive";
  if t.n_ports <= 0 then invalid_arg "Config.make: n_ports must be positive";
  if t.max_cycles <= 0 then
    invalid_arg "Config.make: max_cycles must be positive";
  if t.result_latency < 1 || t.result_latency > 8 then
    invalid_arg "Config.make: result_latency must be in [1, 8]";
  t

let make ?(n_fus = default.n_fus) ?(mem_words = default.mem_words)
    ?(mem_organisation = default.mem_organisation)
    ?(n_ports = default.n_ports) ?(hazard_policy = default.hazard_policy)
    ?(max_cycles = default.max_cycles) ?(sequencer = default.sequencer)
    ?(result_latency = default.result_latency) () =
  validate
    { n_fus; mem_words; mem_organisation; n_ports; hazard_policy;
      max_cycles; sequencer; result_latency }

let prototype () =
  make ~n_fus:8
    ~mem_organisation:(Ximd_machine.Memory.Distributed { n_fus = 8 })
    ~sequencer:Prototype ~result_latency:3 ()

let pp fmt t =
  let seq = match t.sequencer with
    | Research -> "research"
    | Prototype -> "prototype"
  in
  Format.fprintf fmt
    "@[<h>%d FUs, %d memory words, %d ports, %s sequencer, latency %d, %d \
     cycle fuel@]"
    t.n_fus t.mem_words t.n_ports seq t.result_latency t.max_cycles
