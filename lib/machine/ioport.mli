(** Scripted I/O ports.

    Figure 12 of the paper motivates non-blocking synchronisation with
    two processes that each "read some data from an I/O port until the
    port returns a non-zero, valid value" — the ports are an
    unpredictable external interface.  The paper had real (or modelled)
    devices; we substitute deterministic scripts (DESIGN.md §3): every
    port carries a queue of deliveries.  A read before the head
    delivery's ready time returns zero ("not ready"); a read at or after
    it consumes the delivery and returns its value.  Scripted values
    must be non-zero, matching the polling convention.

    Delivery timing is either absolute ([At cycle]) or relative to the
    consumption of the previous delivery on the same port ([After
    cycles] — a device that needs time to produce its next datum after
    being read).  The relative form is what makes serialising two
    I/O-bound processes expensive and is used by the IOSYNC workload.

    Writes are logged with their cycle for later inspection, in arrays
    that grow with the log, so a write allocates nothing once the log
    has reached the run's output. *)

open Ximd_isa

type timing =
  | At of int     (** ready at this absolute cycle *)
  | After of int  (** ready this many cycles after the previous delivery
                      on the port was consumed (or after cycle 0 for the
                      first delivery) *)

type t

val create : ?n_ports:int -> unit -> t
(** [n_ports] defaults to 16. *)

val n_ports : t -> int

val script : t -> port:int -> (timing * Value.t) list -> unit
(** [script t ~port deliveries] installs the input script for [port].
    Values must be non-zero; [At]/[After] arguments non-negative.
    @raise Invalid_argument otherwise, or if [port] is out of range. *)

val read : t -> fu:int -> cycle:int -> log:Hazard.log -> int -> Value.t
(** Poll the port.  Out-of-range ports report
    {!Hazard.Port_out_of_range} and return zero. *)

val write : t -> fu:int -> cycle:int -> log:Hazard.log -> int -> Value.t -> unit

val reset : t -> unit
(** Rewinds every port to the {!create} state: input scripts, consumption
    times and write logs are cleared (a log keeps its arrays).  Callers
    reusing a state must re-{!script} their ports afterwards (a consumed
    script cannot be rewound in place). *)

val output : t -> port:int -> (int * Value.t) list
(** The write log for [port], in write order, as (cycle, value) pairs.
    @raise Invalid_argument if [port] is out of range. *)

val pending : t -> port:int -> int
(** Number of scripted deliveries not yet consumed. *)
