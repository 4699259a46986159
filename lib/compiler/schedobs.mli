(** Compile-time why-analysis: scheduler explainability.

    The runtime side explains every executed cycle ([--account],
    [--critical-path]); this module explains every {e scheduled} cycle
    before it runs.  A [t] is an optional trace collector threaded
    through the scheduling-relevant passes ({!Lang}, {!Codegen},
    {!Listsched} results, {!Pipeliner}, {!Packing}, {!Tracesched})
    behind a single [match obs with None -> () | Some t -> ...] per
    emission site — the same zero-overhead-when-off discipline as
    [state.obs] and fault hooks.  When off, compilation performs no
    extra work beyond that one match.

    What it records:
    - per-pass timings (wall clock via the injected [clock], minor-heap
      allocation) — timing data goes {e only} to the Chrome export;
    - per-block placement provenance: for every operation, the fu×cycle
      slot it landed in and {e why} it sits in that row (first row free,
      a binding dependence edge, or a resource/priority delay), plus the
      block's full DDG;
    - per-loop modulo-scheduling bound accounting: ResMII per resource
      class, RecMII with the binding recurrence circuit, every II the
      pipeliner attempted with its failure reason, the achieved II,
      kernel occupancy, and a gap attribution naming the constraint that
      bound the loop;
    - partition (tile-packing) assignment rationale from {!Packing}.

    Three exports, split by the logical-vs-timing discipline of the
    campaign telemetry layer:
    - {!to_json} — byte-stable ["ximd-sched/1"] JSON: logical facts
      only, no wall times, golden-diffable across runs and machines;
    - {!to_chrome} — Chrome [trace_event] view of passes and per-loop
      scheduling attempts (this is where the timings live);
    - {!pp_explain} — the human report behind [xcc --explain]
      ("II=7, RecMII=7 via circuit v3 -> v5 -> v3 (latency 5 +
      distance 2), ResMII=4 on mem — recurrence-bound"). *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] (default [Sys.time]) supplies timestamps in seconds; CLIs
    pass [Unix.gettimeofday].  The library avoids a [unix] dependency by
    taking the clock as a value. *)

val set_source : t -> string -> unit
(** Name the compilation unit (function name) for the report headers. *)

val now : t -> float
(** The collector's clock — exposed so passes can stamp sub-events
    (per-II attempts) on the same timebase. *)

val pass : t option -> string -> (unit -> 'a) -> 'a
(** [pass obs name f] runs [f ()]; when [obs] is [Some t] it also
    records a pass span [name] with wall time and minor-heap words.
    When [None] the only overhead is the match itself. *)

(* ------------------------------------------------------------------ *)
(* Block schedules: placement provenance                               *)

type why =
  | Free
      (** first feasible row; nothing constrained the op *)
  | Dep of { pred : int; kind : Ddg.kind; latency : int }
      (** the op's row equals a predecessor's row plus that edge's
          latency — this edge is (a) binding constraint *)
  | Resource of { ready : int; delayed : int }
      (** dependences allowed row [ready]; width/priority pressure
          pushed the op down [delayed] rows *)

type placement = {
  op : int;            (** index into the block body *)
  row : int;           (** issue row *)
  slot : int;          (** FU column within the row *)
  height : int;        (** DDG height (the list-scheduling priority) *)
  why : why;
}

type block_report = {
  b_label : string;
  b_width : int;
  b_ops : string array;       (** rendered IR, index-aligned *)
  b_edges : Ddg.edge list;
  b_rows : int;
  b_placements : placement list;   (** in op order *)
}

val record_block :
  t -> label:string -> width:int -> ops:Ir.op array -> Listsched.t -> unit
(** Derive provenance for a finished list schedule of [ops].  Post-hoc:
    the scheduler's inner loop is not instrumented; the why of each
    placement is reconstructed from the final rows and the DDG the
    schedule carries. *)

(* ------------------------------------------------------------------ *)
(* Loops: modulo-scheduling bound accounting                           *)

type res_class = {
  cls : string;        (** resource class name, e.g. "slots", "mem" *)
  cls_ops : int;       (** ops competing for the class *)
  cap : int;           (** units available per row *)
  cls_mii : int;       (** ceil(ops / cap) *)
}

type circuit = {
  c_ops : int list;    (** op indices around the recurrence, in order *)
  c_latency : int;     (** total latency around the circuit *)
  c_distance : int;    (** total iteration distance around the circuit *)
}

type bounds = {
  res_classes : res_class list;
  res_mii : int;       (** max over classes *)
  rec_mii : int;       (** max over recurrence circuits (1 if none) *)
  circuit : circuit option;
      (** a critical circuit achieving [rec_mii], when [rec_mii > 1] *)
}

type loop_edge = {
  e_src : int;
  e_dst : int;
  e_kind : Ddg.kind;
  e_latency : int;
  e_distance : int;    (** iterations *)
}

type outcome =
  | Placed
  | Unplaced of int
      (** greedy placement found no slot for this op *)
  | Violated of loop_edge
      (** placement finished but this dependence failed validation *)

type attempt = {
  a_ii : int;
  a_outcome : outcome;
  a_t0 : float;
  a_t1 : float;        (** timing: Chrome export only *)
}

type binding =
  | Recurrence          (** II = RecMII > ResMII *)
  | Resource_bound      (** II = ResMII > RecMII *)
  | Balanced            (** II = RecMII = ResMII *)
  | Heuristic of int    (** II exceeds both bounds by this gap *)

val binding_of : bounds -> ii:int -> binding
val binding_name : binding -> string
(** "recurrence-bound" | "resource-bound" | "recurrence+resource-bound"
    | "heuristic(+n)". *)

type loop_report = {
  l_label : string;
  l_width : int;
  l_ops : string array;
  l_edges : loop_edge list;
  l_bounds : bounds;
  l_attempts : attempt list;
  l_ii : int;
  l_stages : int;
  l_times : int array;
  l_binding : binding;
}

val record_loop :
  t -> label:string -> width:int -> ops:Ir.op array ->
  edges:loop_edge list -> bounds:bounds -> attempts:attempt list ->
  ii:int -> stages:int -> times:int array -> unit

(* ------------------------------------------------------------------ *)
(* Packing: partition-assignment rationale                             *)

type pack_placement = {
  p_thread : string;
  p_order : int;       (** position in the packer's placement order *)
  p_width : int;
  p_length : int;
  p_x : int;
  p_y : int;
  p_menu : int;        (** tile-menu size the choice was made from *)
  p_bound : string;    (** what fixed [y]: "skyline", "dep:<thread>",
                           "columns", "free" *)
}

type pack_report = {
  k_objective : string;       (** "density" or "time" *)
  k_n_fus : int;
  k_combos : int;             (** tile combinations considered *)
  k_exhaustive : bool;
  k_height : int;
  k_lower_bound : int;
  k_placements : pack_placement list;
}

val record_pack :
  t -> objective:string -> n_fus:int -> combos:int -> exhaustive:bool ->
  height:int -> lower_bound:int -> placements:pack_placement list -> unit

(* ------------------------------------------------------------------ *)
(* Accessors (tests) and exports                                       *)

val pass_names : t -> string list
val blocks : t -> block_report list
val loops : t -> loop_report list
val packs : t -> pack_report list

val to_json : t -> string
(** Byte-stable ["ximd-sched/1"]: schema tag, per-block DDG + placement
    provenance, per-loop bounds/attempts/kernel occupancy map/gap
    decomposition, packing rationale.  Logical facts only — two
    compilations of the same source are byte-identical. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON: one track of pass slices (with
    minor-words args), one track of per-loop scheduling attempts
    (one slice per II tried, named with its outcome). *)

val pp_explain : Format.formatter -> t -> unit
(** The human [--explain] report.  Logical facts only (golden-pinned),
    mirroring the runtime "why is my SSET slow" reports. *)
