(** Data-dependence graphs over a basic block.

    Edge latencies follow the synchronous-update semantics of the target
    (all reads observe start-of-cycle state, all writes commit at end of
    cycle):
    - flow (def → use): latency 1 — the consumer must sit in a later row;
    - anti (use → def): latency 0 — reader and writer may share a row,
      because the reader sees the start-of-cycle value;
    - output (def → def): latency 1 — two same-cycle writes to one
      register are undefined on the machine;
    - memory: store→load and store→store latency 1, load→store latency 0
      (no address analysis; all stores conservatively conflict with all
      memory operations).

    The same graph type carries a trace region ({!Tracesched}), whose
    side exits add [Control] edges, so {!Listsched} schedules both. *)

type kind = Flow | Anti | Output | Mem | Control

type edge = {
  src : int;
  dst : int;
  latency : int;
  kind : kind;
}

type t

val build : ?latency:int -> Ir.op array -> t
(** Nodes are indices into the array, in program order.  [latency]
    (default 1) is the machine's result latency: flow and store-to-load
    edges carry it, anti edges stay 0 and output edges stay 1 (two
    staged writes commit in issue order).  Pass the configured
    [result_latency] when targeting the pipelined prototype datapath. *)

val of_edges : int -> edge list -> t
(** [of_edges n edges] is the graph on nodes [0 .. n-1] with [edges];
    {!preds} and {!succs} list each node's edges in the given order. *)

val edges : t -> edge list
val preds : t -> int -> edge list
val succs : t -> int -> edge list

val heights : t -> int array
(** [heights g].(i) is the longest latency-weighted path from node [i]
    to any sink (the standard list-scheduling priority), on any acyclic
    graph.
    @raise Invalid_argument if the graph has a cycle. *)

val critical_path : t -> int
(** Longest path through the graph — a lower bound on schedule rows
    minus one. *)

val kind_name : kind -> string
(** Canonical short name ("flow", "anti", "out", "mem", "ctl") — shared by
    {!pp} and the {!Schedobs} exporters so every artifact spells edge
    kinds the same way. *)

val pp : Format.formatter -> t -> unit
