(** Typed per-cycle trace events.

    One constructor per observable machine fact.  Events carry their
    cycle so a ring that drops its oldest entries still yields a
    self-describing tail.  This module deliberately depends on nothing
    above the standard library: partitions travel as plain
    [int list list] (the same shape [Ximd_core.Partition.ssets]
    returns), sync signals as "is DONE" booleans, faults as their
    [Ximd_machine.Fault.kind_name] strings. *)

type t =
  | Fetch of { cycle : int; fu : int; pc : int }
      (** a live FU issued the parcel at [pc] *)
  | Commit of { cycle : int; results : int }
      (** [results] register/memory writes and condition codes reached
          the commit stage this cycle *)
  | Cc_broadcast of { cycle : int; fu : int; value : bool }
      (** FU [fu]'s compare result was broadcast to every sequencer *)
  | Ss_transition of { cycle : int; fu : int; to_done : bool }
      (** FU [fu]'s sync signal changed level *)
  | Partition_change of { cycle : int; ssets : int list list }
      (** the SSET partition in effect from [cycle] on *)
  | Barrier_enter of { cycle : int; fu : int; pc : int }
      (** first cycle of a busy-wait on a sync condition at [pc] *)
  | Barrier_exit of { cycle : int; fu : int; pc : int; waited : int }
      (** the wait at [pc] resolved after [waited] spin cycles *)
  | Halt of { cycle : int; fu : int }
  | Fault_fired of { cycle : int; kind : string; target : int }
      (** an injected fault fired ({!Ximd_machine.Fault.kind_name}) *)
  | Watchdog_window of { cycle : int; quiet : int }
      (** the deadlock watchdog filled a [quiet]-cycle window and
          classified the run *)

val cycle : t -> int

val dummy : t
(** Ring-buffer filler; never emitted by the simulators. *)
