(* Ledger reports, the benchmark's one-line result, the per-seed
   reference check and [diff].  Every line is rendered through the
   shared [Ximd_farm.Json] printer. *)

module Json = Ximd_farm.Json

let schema = "ximd-ledger/1"

type t = {
  mode : string;  (* "run" (end-to-end metrics) or "trace" (per-layer) *)
  workload : string;
  seed : int;
  seconds : float;
  tally : Measure.tally;
  metrics : Measure.metric list;
  exact : (string * float) list;
  breakdown : Measure.tally;  (* trace only: does the layer breakdown hold? *)
}

let failed_frac r =
  if r.tally.attempted = 0 then 1.0
  else float_of_int r.tally.failed /. float_of_int r.tally.attempted

let correct r = r.tally.failed = 0 && r.tally.attempted > 0

let to_json r =
  let metric (m : Measure.metric) =
    ( m.name,
      Json.Obj
        [ ("value", Json.Float m.value);
          ("unit", Json.String m.unit_);
          ("q1", Json.Float m.q1);
          ("q3", Json.Float m.q3);
          ("n", Json.Int m.n) ] )
  in
  Json.Obj
    [ ("schema", Json.String schema);
      ("mode", Json.String r.mode);
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Float r.seconds);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.tally.attempted);
      ("failed", Json.Int r.tally.failed);
      ("failed_frac", Json.Float (failed_frac r));
      ("metrics", Json.Obj (List.map metric r.metrics));
      ("exact", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.exact));
      ("breakdown_checks", Json.Int r.breakdown.attempted);
      ("breakdown_failed", Json.Int r.breakdown.failed) ]

(* The last line of [ledger.exe bench]: the result with each metric's
   value and unit only. *)
let result_json r =
  Json.Obj
    [ ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.tally.attempted);
      ("failed", Json.Int r.tally.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Measure.metric) ->
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             r.metrics) ) ]

(* ------------------------------------------------------------------ *)
(* Reading JSON files *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

let parse_file path =
  Result.bind (read_file path) (fun s ->
    Result.map_error (fun e -> path ^ ": " ^ e) (Json.parse s))

let field k j = Json.member k j

let str k j = Option.bind (field k j) Json.to_str

let to_float = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let num k j = Option.bind (field k j) to_float

(* ------------------------------------------------------------------ *)
(* The benchmark specification (BENCHMARK.json) *)

type spec_metric = {
  s_name : string;
  s_unit : string;
  lower_is_better : bool;
  bound : float option;  (* [None] for per-layer metrics *)
}

type spec = { end_to_end : spec_metric list; per_layer : spec_metric list }

let load_spec path =
  let metrics key j =
    match field key j with
    | Some (Json.List items) ->
      List.filter_map
        (fun m ->
          match (str "name" m, str "unit" m, str "better" m) with
          | Some s_name, Some s_unit, Some better ->
            Some { s_name; s_unit; lower_is_better = better = "lower"; bound = num "bound" m }
          | _ -> None)
        items
    | _ -> []
  in
  Result.map
    (fun j -> { end_to_end = metrics "end_to_end" j; per_layer = metrics "per_layer" j })
    (parse_file path)

(* ------------------------------------------------------------------ *)
(* The per-seed reference: simulated facts that must repeat exactly *)

let reference_file = "bench/ledger/reference.json"

(* Whether [value] of exact fact [k] keeps faith with [reference]:
   [compiled_cycles] may fall (a better compiler), never rise; every
   other fact must be identical. *)
let exact_ok k ~reference value =
  if k = "compiled_cycles" then value <= reference else value = reference

let check_reference r =
  match parse_file reference_file with
  | Error e ->
    Measure.check r.tally false (fun () -> "reference: " ^ e)
  | Ok refs -> (
    match Option.bind (field r.workload refs) (field (string_of_int r.seed)) with
    | None -> ()
    | Some expected ->
      List.iter
        (fun (k, v) ->
          match num k expected with
          | None -> ()
          | Some e ->
            Measure.check r.tally (exact_ok k ~reference:e v) (fun () ->
              Printf.sprintf "%s seed %d: %s = %.17g, reference %.17g" r.workload r.seed
                k v e))
        r.exact)

let reference_json entries =
  (* entries: (workload, [(seed, exact)]) *)
  Json.Obj
    (List.map
       (fun (w, seeds) ->
         ( w,
           Json.Obj
             (List.map
                (fun (seed, exact) ->
                  ( string_of_int seed,
                    Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) exact) ))
                seeds) ))
       entries)

(* ------------------------------------------------------------------ *)
(* diff: the second report set against the first, under the spec's
   bounds.  A file may hold several runs of a workload (lines appended
   by repeated runs); a metric then reads as the median of the runs,
   its spread as their quartiles, as the benchmark's gate reads it. *)

type parsed = {
  p_mode : string;
  p_workload : string;
  p_correct : bool;
  p_metrics : (string * float list) list;  (* one value per run *)
  p_spread : (string * (float * float)) list;  (* a lone run's own q1, q3 *)
  p_exact : (string * float) list;
}

let parse_line line =
  match Json.parse line with
  | Ok j when str "schema" j = Some schema ->
    let obj k = match field k j with Some (Json.Obj f) -> f | _ -> [] in
    let metric f = List.filter_map (fun (k, m) -> Option.map (fun v -> (k, v)) (f m)) (obj "metrics") in
    Some
      { p_mode = Option.value (str "mode" j) ~default:"";
        p_workload = Option.value (str "workload" j) ~default:"";
        p_correct = Option.bind (field "correct" j) Json.to_bool = Some true;
        p_metrics = metric (fun m -> Option.map (fun v -> [ v ]) (num "value" m));
        p_spread =
          metric (fun m ->
            match (num "q1" m, num "q3" m) with Some a, Some b -> Some (a, b) | _ -> None);
        (* exact facts hold per seed *)
        p_exact =
          (let seed = Option.fold ~none:"" ~some:string_of_int (Option.bind (field "seed" j) Json.to_int) in
           List.filter_map
             (fun (k, v) -> Option.map (fun f -> (k ^ "@" ^ seed, f)) (to_float v))
             (obj "exact")) }
  | Ok _ | Error _ -> None

(* Runs of one (workload, mode) merged: values collected; an exact fact
   two runs of one seed disagree on reads as nan, which matches
   nothing. *)
let merge a b =
  let exact =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | None -> acc @ [ (k, v) ]
        | Some u -> List.map (fun (k', x) -> if k' = k && u <> v then (k, nan) else (k', x)) acc)
      a.p_exact b.p_exact
  in
  { a with
    p_correct = a.p_correct && b.p_correct;
    p_metrics =
      List.map
        (fun (k, vs) -> (k, vs @ Option.value (List.assoc_opt k b.p_metrics) ~default:[]))
        a.p_metrics;
    p_exact = exact }

let parse_reports path =
  Result.map
    (fun text ->
      List.fold_left
        (fun acc line ->
          match parse_line line with
          | None -> acc
          | Some r -> (
            let same x = x.p_workload = r.p_workload && x.p_mode = r.p_mode in
            match List.find_opt same acc with
            | Some x -> List.map (fun y -> if same y then merge x r else y) acc
            | None -> acc @ [ r ]))
        [] (String.split_on_char '\n' text))
    (read_file path)

(* median, q1, q3 of a metric over the runs; a lone run keeps its own
   quartiles over repeats *)
let summary p name =
  match List.assoc_opt name p.p_metrics with
  | None | Some [] -> None
  | Some [ v ] ->
    let q1, q3 = Option.value (List.assoc_opt name p.p_spread) ~default:(v, v) in
    Some (v, q1, q3)
  | Some vs ->
    let s = Measure.sorted_copy vs in
    Some (Measure.quantile s 0.5, Measure.quantile s 0.25, Measure.quantile s 0.75)

type verdict = Unchanged | Improved | Regressed | Unresolved | Mismatch | Info

let verdict_name = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Mismatch -> "MISMATCH"
  | Info -> "-"

(* A timing whose quartile spread is wider than its bound cannot be
   told apart from noise: it is unresolved, not unchanged. *)
let judge (sm : spec_metric) (a, a1, a3) (b, b1, b3) =
  match sm.bound with
  | None -> Info
  | Some bound ->
    let rel x = if a = 0.0 then 0.0 else x /. Float.abs a in
    let spread v lo hi = if v = 0.0 then 0.0 else (hi -. lo) /. Float.abs v in
    let worse = if sm.lower_is_better then rel (b -. a) else rel (a -. b) in
    if Float.max (spread a a1 a3) (spread b b1 b3) > bound then Unresolved
    else if worse > bound then Regressed
    else if -.worse > bound then Improved
    else Unchanged

let diff ~spec before after =
  let rows = ref [] and bad = ref 0 in
  let row w name a b verdict =
    (match verdict with Regressed | Mismatch -> incr bad | _ -> ());
    rows := (w, name, a, b, verdict) :: !rows
  in
  List.iter
    (fun b ->
      match
        List.find_opt (fun a -> a.p_workload = b.p_workload && a.p_mode = b.p_mode) before
      with
      | None -> row b.p_workload "(report)" nan nan Mismatch
      | Some a ->
        if not (a.p_correct && b.p_correct) then row b.p_workload "correct" nan nan Mismatch;
        let specs = if b.p_mode = "trace" then spec.per_layer else spec.end_to_end in
        List.iter
          (fun sm ->
            match (summary a sm.s_name, summary b sm.s_name) with
            | Some ((va, _, _) as ma), Some ((vb, _, _) as mb) ->
              row b.p_workload sm.s_name va vb (judge sm ma mb)
            | _ -> row b.p_workload sm.s_name nan nan Mismatch)
          specs;
        (* exact facts compare seed by seed, where both sets ran it *)
        List.iter
          (fun (k, vb) ->
            match List.assoc_opt k a.p_exact with
            | Some va ->
              let name = String.sub k 0 (String.index k '@') in
              row b.p_workload k va vb
                (if va = vb then Unchanged
                 else if exact_ok name ~reference:va vb then Improved
                 else Mismatch)
            | None -> ())
          b.p_exact)
    after;
  (List.rev !rows, !bad)
