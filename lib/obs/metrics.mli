(** Metrics registry: named counters, gauges and log-bucketed histograms.

    Everything is preallocated at registration time; the hot-path
    operations ({!incr}, {!add}, {!set_gauge}, {!observe}) touch only
    mutable int fields and one array slot — no allocation, no hashing.

    Histograms use base-2 log bucketing: bucket 0 holds values [<= 0],
    bucket [i >= 1] holds values in [[2^(i-1), 2^i - 1]].  That trades
    precision for a fixed 64-slot footprint, which is plenty to answer
    "are barrier waits tens or thousands of cycles?" — the question the
    paper's §4.1 analysis actually asks. *)

type counter = private { c_name : string; mutable c_value : int }

type gauge = private {
  g_name : string;
  mutable g_value : int;  (* last set *)
  mutable g_max : int;    (* high-water mark *)
}

type histogram = private {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array;
}

type t
(** A registry: an ordered collection of named instruments. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create by name: registering the same name twice returns the
    same instrument. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** Overwrite a counter with an externally maintained total (e.g. the
    event ring's drop count, which the ring already tracks itself). *)

val set_gauge : gauge -> int -> unit
val observe : histogram -> int -> unit

val n_buckets : int

val bucket_index : int -> int
(** [bucket_index v] is 0 for [v <= 0] and [floor(log2 v) + 1]
    otherwise: 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)

val bucket_lo : int -> int
(** Smallest positive value a bucket holds (0 for bucket 0). *)

val bucket_hi : int -> int
(** Largest value a bucket holds (0 for bucket 0). *)

val mean : histogram -> float
(** 0. when empty. *)

val quantile : histogram -> float -> int
(** [quantile h q] (q in [0,1]) — upper bound of the bucket containing
    the q-th observation; 0 when empty.  A log-resolution estimate, not
    an exact order statistic. *)

val counters : t -> counter list
(** Sorted by name. *)

val gauges : t -> gauge list
val histograms : t -> histogram list

val reset : t -> unit
(** Zero every instrument, keeping registrations. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into], registering missing instruments: counters
    and histogram counts/sums/buckets add, gauges and histogram maxima
    take the max (a merged gauge's value {e is} its high-water mark).
    Commutative and associative, so merging per-job registries in
    completion order is deterministic whatever the domain count. *)

val to_json : t -> Ximd_json.t
(** The registry as JSON, keys sorted — byte-stable for a given set of
    recorded values.  Histograms list only their non-empty buckets, each
    as [{"le": upper_bound, "count": n}]. *)
