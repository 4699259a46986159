(** The repository's one JSON module: a dependency-free RFC 8259 parser
    and printer.  Every machine-readable artifact — the [ximd-*/1]
    schemas, result records, job specs and the Chrome traces — is built
    as a {!t} value and rendered by {!to_string}.

    Objects preserve field order (parse order in, given order out), so
    printing is deterministic — the property every golden relies on.
    Integers that fit an OCaml [int] parse as [Int]; anything with a
    fraction or exponent parses as [Float].  The printer has no layout
    options: a document with fixed line framing (one trace event per
    line, the campaign rollup's three lines) gets it from its writer,
    which joins canonical renderings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
      (** [Fixed (d, f)] prints [f] with exactly [d] decimals ([%.*f]);
          the parser never produces it *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses one JSON document.  Errors name the byte offset and what was
    expected; trailing non-whitespace after the document is an error. *)

val to_string : t -> string
(** Compact (no whitespace) rendering; object fields in list order;
    strings escaped per RFC 8259 with [\uXXXX] for control characters;
    [Float] as [%.17g]; non-finite numbers (which JSON cannot express)
    as [null]. *)

val member_to_string : string * t -> string
(** One object member, ["\"key\":value"], rendered as {!to_string}
    renders it inside an object — the unit writers join when they frame
    a document over several lines. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an [Obj] (the first binding of the key); [None] on
    anything else or when absent. *)

val keys : t -> string list
(** Field names of an [Obj], in order; [[]] on anything else. *)

val to_int : t -> int option
(** [Int n] (and an integral [Float]/[Fixed]) as an int. *)

val to_str : t -> string option
val to_bool : t -> bool option

(** {1 Chrome trace_event documents}

    The document frame (the event list, the display time unit, the
    other-data object) and the event shapes the exporters share.
    Timestamps and durations are integers in the format's native
    microseconds; every event is on process 0. *)
module Trace : sig
  val document : t list -> other_data:(string * t) list -> string
  (** The whole trace, one event per line, newline-terminated.
      [other_data] becomes the ["otherData"] object; [[]] omits it. *)

  val process_name : string -> t
  val thread_name : tid:int -> string -> t

  val slice : tid:int -> ts:int -> dur:int -> string -> (string * t) list -> t
  (** A complete ("X") event; the list is its [args] ([[]] omits them). *)

  val instant : tid:int -> ts:int -> string -> t
  (** A thread-scoped instant ("i") event. *)

  val counter : ts:int -> string -> (string * t) list -> t
  (** A counter ("C") sample; the list is its [args] series. *)
end
