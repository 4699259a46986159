(** Chrome [trace_event] JSON exporter (Perfetto / chrome://tracing).

    Layout:
    - one track per FU (tid = FU index) carrying "X" slices — runs of
      consecutive cycles fetching the same address, named by the address
      (or the label [pc_label] supplies) — plus instants for CC
      broadcasts, SS transitions, halts, and barrier enter/exit;
    - one track per SSET stream, keyed by the stream's smallest FU
      (tid = 1000 + leader), carrying the {!Timeline} intervals;
    - "C" counter samples for the live-stream count at each partition
      change;
    - process-level instants for fired faults and the watchdog window.

    One simulated cycle maps to one microsecond of trace time (the
    format's native unit), so Perfetto's time axis reads directly as
    cycles.  Output is a pure function of the sink's recorded data —
    byte-stable, no timestamps or environment leak in. *)

val to_string :
  ?fu_name:(int -> string) -> ?pc_label:(int -> string option) -> Sink.t ->
  string
(** [fu_name] defaults to ["FU<i>"]; [pc_label] (e.g. the program's
    symbol table) defaults to no labels, slices named ["0x<pc>"]. *)
