(* A finished job span: the per-job unit of campaign telemetry.  Spans
   are immutable values assembled by {!Farmobs} from the pool/farm hook
   stream; everything timing-flavoured lives in the [*_t] wall-clock
   fields, everything logical (deterministic across domain counts and
   wall-clock noise) in the rest. *)

type quality = Good | Suspect | Bad

type outcome = { label : string; quality : quality }

let outcome ~label ~quality = { label; quality }

(* Chrome trace_event reserved colour names: green / orange / red. *)
let cname = function
  | Good -> "good"
  | Suspect -> "bad"
  | Bad -> "terrible"

type marker = { at : float; note : string }

type t = {
  seq : int;            (* pool submission sequence = stream position *)
  id : string;
  domain : int;         (* owning worker domain; -1 = never dispatched *)
  enqueue_t : float;
  dequeue_t : float;    (* = enqueue_t when never dispatched *)
  session_t : float;    (* session ready (built or cache hit) *)
  run_end_t : float;
  emit_t : float;
  cache_hit : bool option;  (* None: the job had no session phase *)
  retries : int;
  attempts : int;
  result : outcome;
  cycles : int;         (* 0 unless the job finished a run *)
  n_fus : int;          (* 0 unless the job finished a run *)
  markers : marker list;  (* chronological retry/crash/budget instants *)
}

let queue_wait t = t.dequeue_t -. t.enqueue_t
let session_time t = t.session_t -. t.dequeue_t
let run_time t = t.run_end_t -. t.session_t
let reorder_wait t = t.emit_t -. t.run_end_t
