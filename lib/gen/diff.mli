(** Lockstep differential checking: the reference interpreter versus
    the optimised engine, on everything architecturally observable and
    on the paper's run counters ({!Ximd_ref.Observation.counts}). *)

type model = Ximd_ref.Interp.model = Per_fu | Global | Banked

val model_name : model -> string
(** The engine's name for the model ({!Ximd_core.Engine.model_name}). *)

val model_of_name : string -> model option
val all_models : model list

val applicable_models : Ximd_core.Program.t -> model list
(** The models the program can structurally run under, in
    {!all_models} order: those whose {!Ximd_core.Session.check}
    passes. *)

val observe_engine :
  model -> Ximd_core.Program.t -> Ximd_core.Config.t -> Ximd_ref.Observation.t
(** Runs the engine (hazard policy forced to [Record], no watchdog) and
    extracts the observable result. *)

val observe_reference :
  model -> Ximd_core.Program.t -> Ximd_core.Config.t -> Ximd_ref.Observation.t

type divergence = {
  model : model;
  first_cycle : int option;
      (** first cycle whose control-trace rows disagree, if the traces
          disagree at all *)
  detail : string;  (** one line naming the first mismatching field *)
  reference : Ximd_ref.Observation.t;
  engine : Ximd_ref.Observation.t;
}

type verdict =
  | Agree of { models : model list }  (** every applicable model agrees *)
  | Diverge of divergence  (** first divergence found *)

val check_model :
  model -> Ximd_core.Program.t -> Ximd_core.Config.t -> divergence option
(** Lockstep comparison under one model. *)

val check :
  ?models:model list ->
  Ximd_core.Program.t ->
  Ximd_core.Config.t ->
  verdict
(** [check program config] compares reference and engine under every
    applicable model ([models] restricts the set).  Both sides run
    without a watchdog under the [Record] policy, so outcomes are
    [Halted] or [Fuel_exhausted] — deterministic on both sides.
    @raise Invalid_argument if the program fails [Program.validate]. *)

val check_case : Proggen.case -> verdict

val registers_delta :
  Ximd_ref.Observation.t ->
  Ximd_ref.Observation.t ->
  (int * Ximd_isa.Value.t * Ximd_isa.Value.t) list

val memory_delta :
  Ximd_ref.Observation.t ->
  Ximd_ref.Observation.t ->
  (int * Ximd_isa.Value.t * Ximd_isa.Value.t) list

val pp_divergence : Format.formatter -> divergence -> unit
(** The structured divergence report: model, first divergent cycle,
    register/memory delta, both traces. *)

val divergence_to_string : divergence -> string
