(* The [campaign] workload: the repository's own ximd-serve campaign
   through the run farm, driven as a closed loop with two clients (two
   jobs outstanding), the path [ximd-serve] users feel.

   The jobs are those of examples/jobs/campaign.jsonl, each paired with
   the record test/goldens/serve_campaign.jsonl pins for it, copied to
   bench/ledger/campaign.jsonl so the workload does not move when the
   example does.  One job is left out: [fault-rand] runs to its
   1,000,000-cycle fuel, which would make every pass one long engine
   run.  A pass submits [copies] of every job, shuffled by the seed, so
   each pass does the same work whatever the seed.  Every record of the
   two checked passes must equal its golden record. *)

open Ximd_core
module Farm = Ximd_farm.Farm
module Json = Ximd_farm.Json
module Record = Ximd_farm.Record
module W = Ximd_workloads

let clients = 2

(* Worker domains: at most two, and with the clients' own thread no
   more threads than cores.  On a 2-vCPU VM a second domain made the
   loop slower (its fastest passes 13-18k jobs/s against 18-20k) and
   noisier, as the three threads took turns on two cores. *)
let domains () = max 1 (min 2 (Domain.recommended_domain_count () - 1))
let source = "bench/ledger/campaign.jsonl"

type job = {
  line : string;  (* the ximd-job/1 line as submitted *)
  golden : (string * Json.t) list;  (* its record, at [golden_index] *)
  golden_index : int;
}

let load () =
  let text =
    match In_channel.with_open_bin source In_channel.input_all with
    | text -> text
    | exception Sys_error e -> failwith ("ledger: " ^ e)
  in
  List.filter_map
    (fun entry ->
      if entry = "" then None
      else
        match Json.parse entry with
        | Ok j -> (
          match (Option.bind (Json.member "job" j) Json.to_str, Json.member "record" j) with
          | Some line, Some (Json.Obj golden) ->
            let golden_index =
              Option.value ~default:(-1) (Option.bind (List.assoc_opt "index" golden) Json.to_int)
            in
            Some { line; golden; golden_index }
          | _ -> failwith ("ledger: " ^ source ^ ": an entry needs a job and a record"))
        | Error e -> failwith ("ledger: " ^ source ^ ": " ^ e))
    (String.split_on_char '\n' text)

(* [copies] of every job, shuffled (Fisher-Yates). *)
let generate rng base ~copies =
  let jobs = Array.concat (List.init copies (fun _ -> Array.of_list base)) in
  for i = Array.length jobs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = jobs.(i) in
    jobs.(i) <- jobs.(j);
    jobs.(j) <- x
  done;
  jobs

(* The golden record as the job's [index]-th submission produces it: a
   line that is not a valid job is named after its position. *)
let expected j ~index =
  let line_id k = Printf.sprintf "line-%d" (k + 1) in
  Json.Obj
    (List.map
       (function
         | "index", _ -> ("index", Json.Int index)
         | "id", Json.String id when id = line_id j.golden_index ->
           ("id", Json.String (line_id index))
         | field -> field)
       j.golden)

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type completion = {
  index : int;
  record : Record.t;
  at : int64;  (* emit time *)
}

(* A checked pass compares every record with its golden record, byte
   for byte. *)
let check_record tally jobs (c : completion) =
  let got = Record.to_json_string c.record in
  let want = Json.to_string (expected jobs.(c.index mod Array.length jobs) ~index:c.index) in
  Measure.check tally (got = want) (fun () ->
    Printf.sprintf "job %d: record %s, golden %s" c.index got want)

(* A timed loop checks each record without rendering it: its outcome
   class and cycle count must be those the checked pass saw for its
   job. *)
let outcome (r : Record.t) =
  (Record.class_label r, Option.map (fun (s : Record.stats) -> s.cycles) r.stats)

(* A farm and the clients' side of it.  Records reach [emit] in
   submission order, so the k-th record answers the k-th submission;
   [next] counts submissions over the farm's life. *)
type client = {
  farm : Farm.t;
  m : Mutex.t;
  cv : Condition.t;
  done_q : (Record.t * int64) Queue.t;
  mutable next : int;
}

let client ?obs () =
  let m = Mutex.create () and cv = Condition.create () and done_q = Queue.create () in
  let emit record =
    let at = Measure.now_ns () in
    Mutex.lock m;
    Queue.push (record, at) done_q;
    Condition.signal cv;
    Mutex.unlock m
  in
  { farm = Farm.create ~domains:(domains ()) ?obs ~emit (); m; cv; done_q; next = 0 }

(* [clients] jobs stay outstanding: each completion submits the next
   job until [seconds] have passed and [min_jobs] were submitted, then
   goes to [on_completion].  The farm is idle when it returns. *)
let closed_loop c ~jobs ~seconds ~min_jobs on_completion =
  let pending = Queue.create () in
  let first = c.next in
  let submit () =
    let i = c.next in
    c.next <- i + 1;
    Queue.push i pending;
    ignore (Farm.submit_line c.farm jobs.(i mod Array.length jobs).line)
  in
  let t_start = Measure.now_ns () in
  for _ = 1 to clients do
    submit ()
  done;
  while not (Queue.is_empty pending) do
    Mutex.lock c.m;
    while Queue.is_empty c.done_q do
      Condition.wait c.cv c.m
    done;
    let record, at = Queue.pop c.done_q in
    Mutex.unlock c.m;
    let index = Queue.pop pending in
    if c.next - first < min_jobs || Measure.elapsed_s t_start < seconds then submit ();
    on_completion { index; record; at }
  done

(* Jobs per second and per-model simulated rates, from the time the
   farm took to finish each job: the gap between its record and the one
   before it.  With one worker domain that gap is the job's own service
   time; its latency would also hold the tail of the job ahead of it.
   Each job (a place in the job list) counts at the shortest gap any
   pass after the first [warmup] records gave it, and a rate is work
   over the sum of those gaps.  A preemption then sways nothing, where
   it would sway a whole pass: a pass holds only 80 t500 jobs of a few
   microseconds each.  The gaps are taken as the records arrive, so a
   timed loop keeps no records, whose marking would slow the collector
   more with every pass. *)
type rates = {
  warmup : int;
  mutable seen : int;
  mutable last : int64;  (* the previous record *)
  fastest : float array;  (* per place: the shortest gap *)
  cycles : int array;     (* per place; -1 for no run *)
  models : Engine.model array;  (* per place *)
}

let rates ~warmup ~places =
  { warmup; seen = 0; last = Measure.now_ns (); fastest = Array.make places infinity;
    cycles = Array.make places (-1); models = Array.make places Engine.Per_fu }

let observe r (c : completion) =
  let gap = Int64.to_float (Int64.sub c.at r.last) *. 1e-9 in
  r.last <- c.at;
  if r.seen >= r.warmup then begin
    let place = c.index mod Array.length r.fastest in
    r.fastest.(place) <- Float.min r.fastest.(place) gap;
    r.cycles.(place) <- Option.fold ~none:(-1) ~some:(fun (s : Record.stats) -> s.cycles) c.record.stats;
    r.models.(place) <- c.record.job.model
  end;
  r.seen <- r.seen + 1

let rate_metrics r =
  let times = Instance.model_times () in
  Array.iteri
    (fun place cycles ->
      if cycles >= 0 then begin
        let t = List.assoc r.models.(place) times in
        t.cycles <- t.cycles + cycles;
        t.seconds <- t.seconds +. r.fastest.(place)
      end)
    r.cycles;
  let total = Array.fold_left ( +. ) 0.0 r.fastest in
  Measure.rate ~name:"ops_per_s" ~unit_:"1/s" [ float_of_int (Array.length r.fastest) /. total ]
  :: Instance.mcps_metrics [ times ]

(* ------------------------------------------------------------------ *)
(* Layers only this workload calls *)

let layer_units =
  [ ("farm.spawn_ms", "ms"); ("farm.job_parse_us", "us");
    ("farm.queue_wait_us.p50", "us"); ("farm.session_us.p50", "us");
    ("farm.run_us.p50", "us"); ("farm.queue_wait_us.p99", "us");
    ("farm.reorder_wait_us.p99", "us"); ("farm.emit_us", "us");
    ("farm.cache_hit_frac", "ratio") ]

(* The suite programs the campaign's workload jobs run, for the
   engine/session/obs probes. *)
let targets () =
  List.concat_map
    (fun (w : W.Workload.t) ->
      ({ Instance.label = w.name; model = Engine.Per_fu; variant = w.ximd }
      :: List.map
           (fun v -> { Instance.label = w.name; model = Engine.Global; variant = v })
           (Option.to_list w.vliw))
      @
      if Engine.bank_consistent w.ximd.program then
        [ { Instance.label = w.name; model = Engine.Banked; variant = w.ximd } ]
      else [])
    (W.Suite.all ())

let setup scale ~seed =
  let copies = match (scale : Instance.scale) with Full -> 40 | Tiny -> 1 in
  let jobs = generate (Random.State.make [| seed; 3 |]) (load ()) ~copies in
  let count = Array.length jobs in
  let c = client () in
  let outcomes = Array.make count ("", None) and checked = ref [] in
  let check_outcome tally (x : completion) =
    let want = outcomes.(x.index mod count) in
    Measure.check tally (x.record.job.index = x.index && outcome x.record = want) (fun () ->
      Printf.sprintf "job %d: %s after %s cycles, expected %s" x.index (Record.class_label x.record)
        (Option.fold ~none:"no" ~some:string_of_int (snd (outcome x.record)))
        (fst want))
  in
  (* Two checked passes: the first fills every domain's session cache
     and workload table, the second counts the words of a warm pass. *)
  let verify tally =
    let pass () =
      let cs = ref [] in
      closed_loop c ~jobs ~seconds:0.0 ~min_jobs:count (fun x -> cs := x :: !cs);
      let cs = List.rev !cs in
      List.iter
        (fun x ->
          check_record tally jobs x;
          outcomes.(x.index mod count) <- outcome x.record)
        cs;
      Measure.check tally (List.length cs = count) (fun () -> "campaign: record count");
      cs
    in
    ignore (pass ());
    Gc.minor ();
    let w0 = (Gc.quick_stat ()).minor_words in
    let cs = pass () in
    Gc.minor ();
    let words = (Gc.quick_stat ()).minor_words -. w0 in
    checked := cs;
    let cycles =
      List.fold_left
        (fun acc (c : completion) ->
          acc + Option.fold ~none:0 ~some:(fun (s : Record.stats) -> s.cycles) c.record.stats)
        0 cs
    in
    { Instance.words_per_op = words /. float_of_int count;
      exact = [ ("sim_cycles", float_of_int cycles) ] }
  in
  let run tally ~seconds =
    let r = rates ~warmup:0 ~places:count in
    closed_loop c ~jobs ~seconds ~min_jobs:(5 * count) (fun x ->
      check_outcome tally x;
      observe r x);
    rate_metrics r
  in
  let trace tally ~seconds =
    let spawn =
      Measure.median
        (List.init 5 (fun _ ->
           snd (Measure.time (fun () -> Farm.join (Farm.create ~domains:(domains ()) ~emit:ignore ())))))
    in
    (* a fresh farm's first pass fills its caches: not measured *)
    let jobs_per_s ?obs () =
      let c = client ?obs () in
      let r = rates ~warmup:count ~places:count in
      closed_loop c ~jobs ~seconds:(seconds /. 2.0) ~min_jobs:(2 * count) (fun x ->
        check_outcome tally x;
        observe r x);
      Farm.join c.farm;
      match rate_metrics r with m :: _ -> m.Measure.value | [] -> nan
    in
    let plain = jobs_per_s () in
    let obs = Ximd_obs.Farmobs.create ~clock:Measure.clock_s () in
    let traced = jobs_per_s ~obs () in
    let spans =
      List.filter (fun (s : Ximd_obs.Span.t) -> s.seq >= count) (Ximd_obs.Farmobs.spans obs)
    in
    let pct f p =
      Measure.quantile (Measure.sorted_copy (List.map (fun s -> f s *. 1e6) spans)) p
    in
    let per_call f items =
      let n = List.length items in
      let (), dt = Measure.time (fun () -> List.iter f items) in
      dt *. 1e6 /. float_of_int n
    in
    let hits, misses = Ximd_obs.Farmobs.session_cache_stats obs in
    let m = Measure.exact in
    [ m "farm.spawn_ms" "ms" (spawn *. 1e3);
      m "farm.job_parse_us" "us"
        (per_call (fun j -> ignore (Ximd_farm.Job.of_line ~index:0 j.line)) (Array.to_list jobs));
      m "farm.queue_wait_us.p50" "us" (pct Ximd_obs.Span.queue_wait 0.5);
      m "farm.session_us.p50" "us" (pct Ximd_obs.Span.session_time 0.5);
      m "farm.run_us.p50" "us" (pct Ximd_obs.Span.run_time 0.5);
      m "farm.queue_wait_us.p99" "us" (pct Ximd_obs.Span.queue_wait 0.99);
      m "farm.reorder_wait_us.p99" "us" (pct Ximd_obs.Span.reorder_wait 0.99);
      m "farm.emit_us" "us" (per_call (fun c -> ignore (Record.to_json_string c.record)) !checked);
      m "farm.cache_hit_frac" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      m "trace_overhead" "ratio" (plain /. traced) ]
  in
  { Instance.verify; run; targets = targets (); trace; close = (fun () -> Farm.join c.farm) }
