(** Dynamic-dependence critical path.

    Reconstructs the dependence DAG of a run — register def→use, SS
    producer→consumer, barrier edges, sequencer (program-order) edges —
    and computes the longest chain of realised dependences, answering
    "how fast could this run have been on an ideal machine with the
    same latencies?".  The report is [lower bound N, realised M, gap
    decomposition] (head / per-edge-kind slack / tail).

    Fed online by the engine's end-of-cycle report rather than by
    replaying the event ring: the ring drops its oldest events under pressure, which
    would make a replayed graph unsound (DESIGN.md §9).  Only
    {e realised} dependences become edges — e.g. a register use that
    issued before the def's result arrived read the older value and
    carries no edge — so dropped edges only loosen the bound and
    [{!lower_bound} <= realised] holds for every run.

    Nodes are committing data operations (one per {!Account.Commit}
    slot); spinning re-executions and faulted writes carry no node.
    Memory is not tracked (store→load edges are omitted — an omission
    only loosens the lower bound). *)

type t

type edge = Start | Seq | Reg | Cc | Ss | Barrier
(** In-edge kinds: [Start] (no dependence; chain root), [Seq] (same-FU
    program order, latency 1), [Reg] (register def→use, latency
    [result_latency]), [Cc]/[Ss]/[Barrier] (control dependences —
    producer visible next cycle, released branch fetches the cycle
    after, latency 2). *)

val edge_name : edge -> string

val create : n_fus:int -> n_regs:int -> t
(** @raise Invalid_argument if either count is [< 1]. *)

val n_fus : t -> int
val reset : t -> unit

(** {1 Feeding the graph (called by the engine)} *)

val bind_cc : t -> fu:int -> j:int -> unit
val bind_ss : t -> fu:int -> j:int -> unit
val bind_all : t -> fu:int -> mask:int -> unit
val bind_any : t -> fu:int -> done_mask:int -> unit
(** Called on every evaluation of a conditional branch on [fu]'s
    stream, {e before} this cycle's issues: binds the branch's control
    producers as of start-of-cycle state.  The binding in effect when
    the stream's next op issues (the decisive evaluation's) becomes
    that op's control in-edge.  [bind_any] receives the mask bits that
    were DONE at evaluation — the release waited only for the earliest
    of those. *)

val issue :
  t ->
  cycle:int ->
  fu:int ->
  pc:int ->
  r1:int ->
  r2:int ->
  w:int ->
  sets_cc:bool ->
  latency:int ->
  unit
(** A committing data op.  [r1]/[r2] are source register indices and
    [w] the written register ([-1] = none); [latency] is the config's
    [result_latency].  Written registers/codes become visible to
    consumers at {!end_cycle}, never within the cycle. *)

val ss_mark : t -> fu:int -> unit
(** [fu]'s sync signal changed this cycle: record [fu]'s latest op as
    the producer behind the new signal value. *)

val end_cycle : t -> unit
(** Publish this cycle's defs and SS marks. *)

(** {1 Results} *)

val node_count : t -> int

val lower_bound : t -> int
(** Length in cycles of the longest realised dependence chain — the
    fewest cycles any machine with the same latencies needs.  [0] when
    no op committed. *)

type step = {
  s_edge : edge;
  s_latency : int;
  s_slack : int;   (** realised cycles beyond the edge latency *)
  s_cycle : int;
  s_fu : int;
  s_pc : int;
}

val path : t -> step list
(** The critical chain, oldest first; the first step's edge is
    [Start]. *)

type kind_sum = {
  k_edges : int;
  k_cycles : int;  (** summed edge latencies (the bound's composition) *)
  k_slack : int;   (** summed realised slack (the gap's composition) *)
}

val breakdown : t -> (edge * kind_sum) list
(** Per-edge-kind attribution over {!path}, in a fixed order
    ([Seq], [Reg], [Cc], [Ss], [Barrier]). *)

val to_json : t -> realised:int -> Ximd_json.t
(** The [ximd-critpath/1] document.
    [realised] is the run's cycle count; the gap decomposition
    ([gap_head] + per-kind [slack] + [gap_tail]) sums exactly to
    [realised - lower_bound].  The path is truncated at 256 steps
    ([path_truncated] says so). *)

val pp : Format.formatter -> t -> realised:int -> unit
(** Human summary: bound vs realised, per-kind table, gap split, and
    the first 32 chain steps. *)
