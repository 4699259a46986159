(** Dynamic-dependence critical path.

    Reconstructs the dependence DAG of a run — register def→use, SS
    producer→consumer, barrier edges, sequencer (program-order) edges —
    and computes the longest chain of realised dependences, answering
    "how fast could this run have been on an ideal machine with the
    same latencies?".  The report is [lower bound N, realised M, gap
    decomposition] (head / per-edge-kind slack / tail).

    Fed online, one finished cycle at a time ({!on_cycle}), rather than
    by replaying the event ring: the ring drops its oldest events under
    pressure, which would make a replayed graph unsound (DESIGN.md §9).  Only
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

val on_cycle : t -> Cycle.t -> unit
(** Adds one finished cycle ({!Sink.on_cycle} calls it).  Each issuing
    FU's conditional branch binds its control producers as of the sync
    levels its evaluation read ([ss_before]; an ANY barrier waited only
    for the earliest producer among the signals DONE then); the binding
    in effect when the stream's next op issues becomes that op's control
    in-edge.  Each {!Account.Commit} slot becomes a node from its
    operand registers and the configuration's [latency]; an FU whose
    sync level moved makes its latest op the producer behind the new
    level.  What the cycle defines becomes visible to consumers only
    from the next cycle on. *)

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
