(** Modulo software pipelining — scheduling analysis.

    "Software Pipelining uses the semantics of program loops to tightly
    schedule repetitive operations" (paper §1.2); the XIMD compiler
    project planned "an expanded version of Percolation Scheduling,
    Software Pipelining" (§4.2).  This module implements the scheduling
    half of iterative modulo scheduling for a single-block loop body:
    it derives loop-carried dependences from the body's def/use pattern,
    computes the resource and recurrence minimum initiation intervals,
    and searches for the smallest initiation interval II admitting a
    modulo schedule.

    Simplifications versus Rau's full IMS (documented in DESIGN.md): no
    operation ejection/backtracking — if the greedy placement fails at a
    candidate II, the next II is tried.  Kernel code generation is
    {!Kernelgen}.

    Loop-carried dependences: a use of [v] at body position [j] with no
    prior definition of [v] at positions [< j] reads the value produced
    by [v]'s (last) definition in the {e previous} iteration — a flow
    edge with iteration distance 1.

    Bound accounting ({!bounds}): ResMII is reported per resource class
    (row slots, memory slots) and RecMII per recurrence circuit — the
    smallest II under which the dependence graph weighted
    [latency - II * distance] has no strictly positive cycle, with a
    witness circuit recovered for the [xcc --explain] report.  Passing
    [?obs] records every II the search attempts (with its failure
    reason) and the final loop report into a {!Schedobs} collector. *)

type t = {
  ii : int;               (** achieved initiation interval *)
  times : int array;      (** op index -> issue time (flat schedule) *)
  stages : int;           (** pipeline depth in stages of II cycles *)
  res_mii : int;          (** resource-constrained lower bound *)
  rec_mii : int;          (** recurrence-constrained lower bound *)
  width : int;
}

val use_distance : Ir.op array -> int -> Ir.vreg -> int
(** [use_distance body j v] is the iteration distance of the value the
    op at position [j] reads from [v]: 0 when an earlier op of the body
    defines [v], otherwise 1 (the previous iteration's definition). *)

val bounds : width:int -> Ir.op array -> Schedobs.bounds
(** Lower-bound accounting alone, without scheduling: ResMII per
    resource class, RecMII with a binding recurrence circuit when one
    exists ([rec_mii > 1]). *)

val schedule :
  ?obs:Schedobs.t -> ?label:string -> width:int -> Ir.op array ->
  (t, string) result
(** Fails on an empty body or if no II up to [length body * 2 + 4]
    admits a schedule (which cannot happen for DAG-consistent bodies).
    [label] (default ["loop"]) names the loop in observability
    reports. *)

val verify : width:int -> Ir.op array -> t -> (unit, string) result
(** Independent validation: every intra- and inter-iteration dependence
    satisfies [time(dst) >= time(src) + latency - II * distance], and no
    more than [width] operations share an issue slot modulo II. *)

val speedup_bound : Ir.op array -> t -> float
(** Sequential-rows / II: throughput gain of the pipelined loop over a
    non-overlapped schedule of the same body at the same width. *)
