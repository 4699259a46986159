(** Exhaustive per-slot cycle accounting.

    Every fu×cycle slot of a run is classified into exactly one category
    of a closed taxonomy, classified by the engine at the end of the
    cycle and handed over in the cycle record ({!Cycle.t}; the engine is
    the only place that knows {e why} a slot was idle — an SS spin and a
    structural nop look identical from the outside).  The
    categories are conserved: they sum to [cycles × n_fus], which the
    test suite checks as a QCheck property.

    Classification priority (first match wins), per live slot:
    - non-nop data op under a spinning branch → {!Squashed} (the spin
      re-executes it; its result is architecturally redundant);
    - non-nop data op whose write was dropped by an injected fault →
      {!Fault_lost};
    - non-nop data op → {!Commit};
    - nop under a branch spinning on [Ss j] → {!Spin_ss}, on
      [All_ss]/[Any_ss] → {!Barrier_wait}, on [Cc j] → {!Spin_cc}
      (the paper's Figure 12 I/O polling — a deliberate extension of
      the issue taxonomy, see DESIGN.md §9);
    - nop otherwise → {!Nop_padding}.

    Slots of halted (or never-started) FUs are {!Halted}. *)

type cls =
  | Commit        (** a data operation whose result reaches commit *)
  | Nop_padding   (** structural nop: nothing schedulable in the slot *)
  | Spin_ss       (** busy-wait on one sync signal ([Ss j]) *)
  | Spin_cc       (** busy-wait on a condition code ([Cc j]) *)
  | Barrier_wait  (** busy-wait on a sync barrier ([All_ss]/[Any_ss]) *)
  | Squashed      (** data op re-executed by a spinning branch *)
  | Fault_lost    (** data op whose write a fault dropped *)
  | Halted        (** the FU was halted this cycle *)

val all : cls list
(** Every category once, in report order. *)

val name : cls -> string
(** Stable snake_case key used in the JSON export. *)

val label : cls -> string
(** Human table label. *)

type t

val create : n_fus:int -> t
(** @raise Invalid_argument if [n_fus < 1]. *)

val n_fus : t -> int

val tally : t -> fu:int -> cls -> unit
(** One slot observed: a single array increment. *)

val count : t -> fu:int -> cls -> int
val total : t -> cls -> int
val slots : t -> int
(** Sum over all categories and FUs — equals [cycles × n_fus] for a
    completed run. *)

val reset : t -> unit

val to_json : t -> cycles:int -> Ximd_json.t
(** The [ximd-account/1] document: totals and the per-FU breakdown. *)

val pp : Format.formatter -> t -> cycles:int -> unit
(** Human table: category, slots, percentage, per-FU split.  Categories
    with zero slots are omitted. *)
