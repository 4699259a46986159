(** Ready-list scheduling — the compiler's one scheduler.

    The classic greedy scheduler used for VLIW compaction: a node
    becomes ready when its dependence predecessors have issued (with
    edge latencies satisfied), and each row takes the ready nodes in
    priority order — highest critical-path height first, then lowest
    index — while their resource class has a free slot.  Block
    scheduling ({!schedule}) has one class, the row width: all XIMD-1
    operations take one cycle and every functional unit is universal.
    The trace scheduler ({!Tracesched}) adds a second class, one
    control slot per row for its side exits. *)

type t = {
  rows : int list array;  (** node indices per row, in priority order *)
  row_of : int array;     (** node index -> row *)
  width : int;            (** most nodes a row holds: the summed capacities *)
  graph : Ddg.t;          (** the graph scheduled *)
  heights : int array;    (** {!Ddg.heights} of [graph], the priority *)
}

val schedule_graph : Ddg.t -> cls:int array -> caps:int array -> t
(** [schedule_graph g ~cls ~caps] schedules the nodes of the acyclic
    graph [g]: node [i] belongs to class [cls.(i)], and a row holds at
    most [caps.(c)] nodes of class [c].
    @raise Invalid_argument if a node's class has no slot or [g] has a
    cycle. *)

val schedule : ?latency:int -> width:int -> Ir.op array -> t
(** Schedules a basic block over its {!Ddg.build} graph, [width]
    operations per row.  [latency] is the machine result latency fed to
    {!Ddg.build} (default 1).
    @raise Invalid_argument if [width < 1]. *)

val length : t -> int
(** Number of rows. *)

val verify : ?latency:int -> Ir.op array -> t -> (unit, string) result
(** Independent check that the schedule respects every DDG edge and the
    width bound — used by tests and the property suite. *)
