(** Per-job campaign spans.

    One span per job that flowed through the run farm: its position in
    the result stream ([seq]), the worker domain that owned it, wall
    times for every phase boundary (enqueue → dequeue → session ready →
    run end → emit), its retry/crash/budget markers, and the logical
    facts of its execution (outcome, attempts, cycles, machine width).

    Spans split cleanly into two views, and campaign exports must keep
    them apart (see {!Farmobs}): the {e timing} fields ([*_t], [domain],
    [cache_hit], [markers]) depend on the scheduler and the wall clock
    and are only ever exported into traces and heartbeats; the
    {e logical} fields ([seq], [id], [result], [attempts], [retries],
    [cycles], [n_fus]) are a pure function of the campaign spec, so
    they are safe to golden-diff across runs and domain counts. *)

type quality =
  | Good     (** clean completion *)
  | Suspect  (** ran but hit a limit or recorded trouble *)
  | Bad      (** crashed, rejected or dropped *)

type outcome = { label : string; quality : quality }

val outcome : label:string -> quality:quality -> outcome

val cname : quality -> string
(** The Chrome [trace_event] reserved colour name a slice of this
    quality is painted with (green / orange / red). *)

type marker = { at : float; note : string }

type t = {
  seq : int;
  id : string;
  domain : int;
  enqueue_t : float;
  dequeue_t : float;
  session_t : float;
  run_end_t : float;
  emit_t : float;
  cache_hit : bool option;
  retries : int;
  attempts : int;
  result : outcome;
  cycles : int;
  n_fus : int;
  markers : marker list;
}

(** {1 Phase durations (seconds)} *)

val queue_wait : t -> float
val session_time : t -> float
val run_time : t -> float
val reorder_wait : t -> float
(** Time between the run finishing and the record emitting — jobs
    whose stream predecessors are still running park in the pool's
    reorder buffer for exactly this long. *)
