(* Campaign-level telemetry: one {!Span} per job, under a single
   mutex.  Hooks arrive concurrently from the pool's worker domains and
   from the producer.  A job's span is its one record here: each hook
   replaces the pending span, [on_emit] finalises it, and the rollup's
   retry histogram, cycles, session-cache counts and per-domain tallies
   are folded from the finished spans when they are read.  Kept running
   beside the spans are only what no span holds — the queue samples,
   the merged account and metrics — and the outcome counts, which the
   heartbeat prints at every N-th emit.  Every fold is commutative
   (sums, maxes, per-class counts), so the logical rollup is a pure
   function of the campaign spec — identical bytes at any domain count,
   on any machine.

   The clock is injected at creation (lib/obs stays dependency-free and
   tests can drive a fake clock); callers pass Unix.gettimeofday. *)

type t = {
  mutex : Mutex.t;
  clock : unit -> float;
  t0 : float;
  progress_every : int;
  progress : string -> unit;
  pending : (int, Span.t) Hashtbl.t;
      (* spans not yet emitted: an unreached phase's time is < 0 and a
         job never named has id "" *)
  mutable spans_rev : Span.t list;
  mutable submitted : int;
  mutable completed : int;
  mutable queue_hwm : int;
  mutable queue_samples_rev : (float * int) list;
  outcomes : (string, int ref) Hashtbl.t;  (* label -> emitted jobs *)
  account_totals : int array;  (* indexed like Account.cls *)
  mutable account_slots : int;
  merged_metrics : Metrics.t;
  mutable last_emit : float;
}

let create ?(progress_every = 0) ?(progress = fun _ -> ()) ~clock () =
  let t0 = clock () in
  { mutex = Mutex.create ();
    clock;
    t0;
    progress_every;
    progress;
    pending = Hashtbl.create 64;
    spans_rev = [];
    submitted = 0;
    completed = 0;
    queue_hwm = 0;
    queue_samples_rev = [];
    outcomes = Hashtbl.create 16;
    account_totals = Array.make (List.length Account.all) 0;
    account_slots = 0;
    merged_metrics = Metrics.create ();
    last_emit = t0 }

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.replace table key (ref 1)

(* [(key, count)] pairs, sorted by key. *)
let sorted_counts table =
  List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table [])

(* ------------------------------------------------------------------ *)
(* Hooks *)

(* A job emitted without ever completing: the pool built the record
   itself (an interrupt drain the caller didn't annotate). *)
let dropped = Span.outcome ~label:"dropped" ~quality:Span.Bad

(* Callers must hold the lock. *)
let update t seq f =
  match Hashtbl.find_opt t.pending seq with
  | None -> ()
  | Some s -> Hashtbl.replace t.pending seq (f s)

let on_enqueue t ~seq ~depth =
  let now = t.clock () in
  locked t (fun () ->
    t.submitted <- t.submitted + 1;
    if depth > t.queue_hwm then t.queue_hwm <- depth;
    t.queue_samples_rev <- (now, depth) :: t.queue_samples_rev;
    Hashtbl.replace t.pending seq
      { Span.seq;
        id = "";
        domain = -1;
        enqueue_t = now;
        dequeue_t = -1.;
        session_t = -1.;
        run_end_t = -1.;
        emit_t = -1.;
        cache_hit = None;
        retries = 0;
        attempts = 0;
        result = dropped;
        cycles = 0;
        n_fus = 0;
        markers = [] })

let on_dequeue t ~seq ~domain ~depth =
  let now = t.clock () in
  locked t (fun () ->
    t.queue_samples_rev <- (now, depth) :: t.queue_samples_rev;
    update t seq (fun s -> { s with Span.domain; dequeue_t = now }))

let on_session_ready t ~seq ~cache_hit =
  let now = t.clock () in
  locked t (fun () ->
    update t seq (fun s ->
      { s with Span.session_t = now; cache_hit = Some cache_hit }))

let on_retry t ~seq ~attempt =
  let now = t.clock () in
  let marker = { Span.at = now; note = Printf.sprintf "retry %d" attempt } in
  locked t (fun () ->
    update t seq (fun s ->
      { s with
        Span.retries = s.retries + 1;
        markers = s.markers @ [ marker ] }))

let on_complete t ~seq ~id ~result ~attempts ?(cycles = 0) ?(n_fus = 0) () =
  let now = t.clock () in
  locked t (fun () ->
    update t seq (fun s ->
      { s with Span.id; run_end_t = now; result; attempts; cycles; n_fus }))

let merge_account t acct =
  locked t (fun () ->
    List.iteri
      (fun i cls ->
        t.account_totals.(i) <- t.account_totals.(i) + Account.total acct cls)
      Account.all;
    t.account_slots <- t.account_slots + Account.slots acct)

let merge_metrics t registry =
  locked t (fun () -> Metrics.merge ~into:t.merged_metrics registry)

let counts pairs =
  Ximd_json.Obj (List.map (fun (k, n) -> (k, Ximd_json.Int n)) pairs)

let per_sec n elapsed = if elapsed > 0. then float_of_int n /. elapsed else 0.

(* Heartbeat: the outcome counts are over the records emitted so far,
   which the pool guarantees are exactly the first [completed] stream
   positions — deterministic; only elapsed_ms/jobs_per_sec carry wall
   time. *)
let progress_line t ~now =
  let open Ximd_json in
  let elapsed = now -. t.t0 in
  to_string
    (Obj
       [ ("schema", String "ximd-progress/1");
         ("completed", Int t.completed);
         ("submitted", Int t.submitted);
         ("outcomes", counts (sorted_counts t.outcomes));
         ("elapsed_ms", Int (int_of_float (elapsed *. 1000.)));
         ("jobs_per_sec", Fixed (1, per_sec t.completed elapsed)) ])

(* The span leaves [pending]: a phase the job never reached takes the
   time of the one before it, and a job never named is "job-<seq>". *)
let on_emit t ~seq =
  let now = t.clock () in
  locked t (fun () ->
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some s ->
      Hashtbl.remove t.pending seq;
      let dequeue_t = if s.dequeue_t < 0. then s.enqueue_t else s.dequeue_t in
      let session_t = if s.session_t < 0. then dequeue_t else s.session_t in
      let run_end_t = if s.run_end_t < 0. then session_t else s.run_end_t in
      let id = if s.id = "" then Printf.sprintf "job-%d" seq else s.id in
      t.spans_rev <-
        { s with id; dequeue_t; session_t; run_end_t; emit_t = now }
        :: t.spans_rev;
      t.completed <- t.completed + 1;
      t.last_emit <- now;
      bump t.outcomes s.result.Span.label;
      if t.progress_every > 0 && t.completed mod t.progress_every = 0 then
        t.progress (progress_line t ~now))

(* ------------------------------------------------------------------ *)
(* Results, folded from the finished spans.  Callers of the unlocked
   helpers must hold the lock. *)

let sorted_spans t =
  List.sort
    (fun (a : Span.t) (b : Span.t) -> Int.compare a.seq b.seq)
    t.spans_rev

let spans t = locked t (fun () -> sorted_spans t)

let completed t = locked t (fun () -> t.completed)
let queue_depth_high_water t = locked t (fun () -> t.queue_hwm)

let cache_counts spans =
  let count hit =
    List.length
      (List.filter (fun (s : Span.t) -> s.cache_hit = Some hit) spans)
  in
  (count true, count false)

let session_cache_stats t = locked t (fun () -> cache_counts t.spans_rev)

let sum_cycles spans =
  List.fold_left (fun acc (s : Span.t) -> acc + s.cycles) 0 spans

let total_cycles t = locked t (fun () -> sum_cycles t.spans_rev)

(* The worker domains that ran a job, ascending. *)
let span_domains spans =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (s : Span.t) -> if s.domain >= 0 then Some s.domain else None)
       spans)

let named_account_totals t =
  List.mapi (fun i cls -> (Account.name cls, t.account_totals.(i))) Account.all

let account_totals t = locked t (fun () -> named_account_totals t)

let account_slots t = locked t (fun () -> t.account_slots)
let merged_metrics t = t.merged_metrics

(* ------------------------------------------------------------------ *)
(* Rollup.  The logical view is golden-diffable; the fleet view is
   deliberately quarantined in its own object so a byte-diff of the
   logical line never sees a wall time, a domain identity or a cache
   artefact. *)

let logical t spans =
  let open Ximd_json in
  let retries = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.t) -> bump retries (string_of_int s.attempts))
    spans;
  Obj
    [ ("view", String "logical");
      ("jobs", Int t.completed);
      ("outcomes", counts (sorted_counts t.outcomes));
      ("total_cycles", Int (sum_cycles spans));
      ("retry_histogram", counts (sorted_counts retries));
      ( "account",
        counts (named_account_totals t @ [ ("slots", t.account_slots) ]) );
      ("metrics", Metrics.to_json t.merged_metrics);
      ( "per_job",
        List
          (List.map
             (fun (s : Span.t) ->
               Obj
                 [ ("seq", Int s.seq);
                   ("id", String s.id);
                   ("outcome", String s.result.Span.label);
                   ("attempts", Int s.attempts);
                   ("cycles", Int s.cycles);
                   ("n_fus", Int s.n_fus) ])
             spans) ) ]

let logical_json t =
  locked t (fun () -> Ximd_json.to_string (logical t (sorted_spans t)))

let fleet t spans ~now =
  let open Ximd_json in
  let hits, misses = cache_counts spans in
  let lookups = hits + misses in
  let domain d =
    let mine = List.filter (fun (s : Span.t) -> s.domain = d) spans in
    let busy =
      List.fold_left
        (fun acc (s : Span.t) -> acc +. (s.run_end_t -. s.dequeue_t))
        0. mine
    in
    Obj
      [ ("domain", Int d);
        ("jobs", Int (List.length mine));
        ("cycles", Int (sum_cycles mine));
        ("busy_ms", Int (int_of_float (busy *. 1000.))) ]
  in
  Obj
    [ ("view", String "fleet");
      ("wall_ms", Int (int_of_float ((now -. t.t0) *. 1000.)));
      ("queue_depth_high_water", Int t.queue_hwm);
      ( "session_cache",
        Obj
          [ ("hits", Int hits);
            ("misses", Int misses);
            ( "hit_rate",
              Fixed
                ( 3,
                  if lookups = 0 then 0.
                  else float_of_int hits /. float_of_int lookups ) ) ] );
      ("domains", List (List.map domain (span_domains spans)));
      ("jobs_per_sec", Fixed (1, per_sec t.completed (t.last_emit -. t.t0))) ]

(* Three lines by construction: line 2 is the logical view (plus a
   trailing comma), so tooling can extract and byte-diff it with
   `sed -n 2p` — no JSON parser needed. *)
let rollup_json t =
  let now = t.clock () in
  locked t (fun () ->
    let spans = sorted_spans t in
    let members =
      [ ("schema", Ximd_json.String "ximd-campaign/1");
        ("logical", logical t spans);
        ("fleet", fleet t spans ~now) ]
    in
    "{"
    ^ String.concat ",\n" (List.map Ximd_json.member_to_string members)
    ^ "}\n")

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export: one track per domain, one complete slice
   per job (outcome-coloured), session/run sub-slices, retry and
   failure instants, a queue-depth counter track, and one async lane
   per job spanning enqueue -> emit (queue wait included). *)

let chrome_json t =
  let open Ximd_json in
  let spans, samples, queue_hwm =
    locked t (fun () ->
      (sorted_spans t, List.rev t.queue_samples_rev, t.queue_hwm))
  in
  let micros seconds = int_of_float (seconds *. 1e6) in
  let us f = micros (f -. t.t0) in
  let dur a b = max 0 (micros (b -. a)) in
  let job_events (s : Span.t) =
    let label = s.result.Span.label in
    (* full-lifetime async lane: enqueue -> emit, reorder wait and
       queue wait visible as the flanks around the domain slice *)
    let lane ph at =
      Obj
        [ ("ph", String ph);
          ("cat", String "job");
          ("id", Int s.seq);
          ("pid", Int 0);
          ("tid", Int (max 0 s.domain));
          ("ts", Int (us at));
          ("name", String s.id) ]
    in
    let lanes = [ lane "b" s.enqueue_t; lane "e" s.emit_t ] in
    if s.domain < 0 then lanes
    else
      let tid = s.domain in
      let job =
        Obj
          [ ("ph", String "X");
            ("pid", Int 0);
            ("tid", Int tid);
            ("ts", Int (us s.dequeue_t));
            ("dur", Int (dur s.dequeue_t s.run_end_t));
            ("cname", String (Span.cname s.result.Span.quality));
            ("name", String (Printf.sprintf "%s [%s]" s.id label));
            ( "args",
              Obj
                [ ("outcome", String label);
                  ("attempts", Int s.attempts);
                  ("cycles", Int s.cycles);
                  ("queue_wait_us", Int (micros (Span.queue_wait s)));
                  ("reorder_wait_us", Int (micros (Span.reorder_wait s))) ] ) ]
      in
      let phases =
        match s.cache_hit with
        | None -> []
        | Some hit ->
          [ Trace.slice ~tid ~ts:(us s.dequeue_t)
              ~dur:(dur s.dequeue_t s.session_t)
              (if hit then "cache-hit" else "session-build")
              [];
            Trace.slice ~tid ~ts:(us s.session_t)
              ~dur:(dur s.session_t s.run_end_t)
              "run" [] ]
      in
      let markers =
        List.map
          (fun (m : Span.marker) ->
            Trace.instant ~tid ~ts:(us m.Span.at) m.Span.note)
          s.markers
      in
      let failure =
        if s.result.Span.quality <> Span.Good then
          [ Trace.instant ~tid ~ts:(us s.run_end_t) label ]
        else []
      in
      lanes @ (job :: phases) @ markers @ failure
  in
  Trace.document
    (Trace.process_name "ximd campaign"
     :: List.map
          (fun domain ->
            Trace.thread_name ~tid:domain (Printf.sprintf "domain %d" domain))
          (span_domains spans)
    @ List.map
        (fun (at, depth) ->
          Trace.counter ~ts:(us at) "queue_depth" [ ("depth", Int depth) ])
        samples
    @ List.concat_map job_events spans)
    ~other_data:
      [ ("jobs", Int (List.length spans));
        ("queue_depth_high_water", Int queue_hwm) ]
