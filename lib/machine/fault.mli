(** Deterministic fault injection.

    A fault plan is a list of events, each firing on one cycle against
    one target, applied by the simulators at the top of the cycle (before
    fetch and condition evaluation) so an injected flip is visible to
    that cycle's branches:

    - {!Flip_ss}: invert FU [target]'s synchronisation signal
      (BUSY <-> DONE) — models a glitched SS broadcast wire (§2.2).
    - {!Flip_cc}: invert condition code [target] (an undefined CC is
      forced TRUE) — models a corrupted CC broadcast.
    - {!Drop_write}: every register/memory result FU [target] issues on
      that cycle is silently lost — models a dropped write-port transfer.
    - {!Dup_write}: every result FU [target] issues on that cycle is
      written back twice, which the hazard layer surfaces as a
      multiple-write event — models a double-clocked write port.
    - {!Stuck_halt}: FU [target] halts permanently {e without} raising
      its SS bit to DONE (unlike a normal halt, DESIGN.md §5) — the
      canonical deadlock-inducing failure for SS handshakes.

    Schedules are either scripted or pseudo-random from a seed
    (splitmix64), so every run of the same spec on the same program is
    bit-for-bit reproducible.

    Spec grammar (the CLI's [--inject] argument):
    {v
    SPEC  ::= ITEM ("," ITEM)*
    ITEM  ::= KIND "@" CYCLE ":" TARGET     one scripted event
            | "rand" ":" SEED ":" COUNT [":" UNTIL]
    KIND  ::= "ss" | "cc" | "drop" | "dup" | "halt"
    v}
    [rand:S:N[:U]] expands to [N] pseudo-random events seeded by [S] on
    cycles in [[0, U)] ([U] defaults to 10000). *)

type kind = Flip_ss | Flip_cc | Drop_write | Dup_write | Stuck_halt

type event = { at : int; kind : kind; target : int }

type t

val create : event list -> t
(** Build an injection session; events are sorted by cycle. *)

val parse : n_fus:int -> string -> (event list, string) result
(** Parse the spec grammar above, validating targets against [n_fus]. *)

val of_spec : n_fus:int -> string -> (t, string) result
(** {!create} on what {!parse} reads. *)

val splitmix64 : int64 ref -> int64
(** One step of splitmix64: advances the state and returns its mix.
    {!random_schedule} draws from it, and the run farm's retry backoff
    hashes with it. *)

val random_schedule :
  seed:int -> n:int -> ?until:int -> n_fus:int -> unit -> event list
(** [n] events on cycles in [[0, until)] (default 10000), deterministic
    in [seed]. *)

val begin_cycle : t -> cycle:int -> apply:(kind -> int -> unit) -> unit
(** Fire every event due at [cycle]: control faults ({!Flip_ss},
    {!Flip_cc}, {!Stuck_halt}) are handed to [apply]; {!Drop_write} and
    {!Dup_write} arm the per-cycle write masks queried by {!drops} and
    {!dups}. *)

val drops : t -> fu:int -> bool
(** Is FU [fu]'s write port dropping this cycle? *)

val dups : t -> fu:int -> bool
(** Is FU [fu]'s write port duplicating this cycle? *)

val fired : t -> event list
(** Events that have fired so far, in firing order. *)

val fired_rev : t -> event list
(** {!fired} newest first, without the reversal — shares the internal
    list, so per-cycle observers can peel off just-fired events without
    allocating. *)

val remaining : t -> int
(** Events not yet fired. *)

val reset : t -> unit
(** Rewinds the session to its {!create} state: the schedule cursor
    returns to the first event, the per-cycle write masks disarm and the
    fired log empties, so a reused state replays the identical fault
    schedule. *)

val kind_name : kind -> string
val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string
(** Round-trips through {!parse}: ["ss@12:3"]. *)
