(** Common harness for benchmark programs.

    A {!variant} is one runnable coding of a workload: a program, the
    simulator it targets, a configuration, memory/register/port
    initialisation, and a result check.  A {!t} pairs an XIMD coding
    with (usually) a VLIW coding of the same computation, for the paper's
    §4.1 comparison, which [Ximd_report.Compare] runs: this module runs
    one variant at a time. *)

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

val run :
  ?tracer:Tracer.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Ximd_obs.Sink.t ->
  variant ->
  Run.outcome * State.t
(** Creates a state, applies [setup], and runs the variant on its
    simulator (a one-shot {!Session}).  When [watchdog] is given, wedged
    runs classify as {!Run.Deadlocked} instead of burning their fuel.
    When [obs] is given, the run feeds events and metrics into the sink
    (see {!Ximd_obs.Sink}). *)

val run_checked :
  ?tracer:Tracer.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Ximd_obs.Sink.t ->
  variant ->
  (Run.outcome * State.t, string) result
(** Like {!run}, but requires the run to halt within fuel — fuel
    exhaustion and deadlock both report [Error] — and the check to
    pass. *)
