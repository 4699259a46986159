type sequencer = Research | Prototype

type t = {
  n_fus : int;
  mem_words : int;
  mem_organisation : Ximd_machine.Memory.organisation;
  n_ports : int;
  hazard_policy : Ximd_machine.Hazard.policy;
  max_cycles : int;
  sequencer : sequencer;
  result_latency : int;
}

let default =
  { n_fus = 8;
    mem_words = 65536;
    mem_organisation = Ximd_machine.Memory.Shared;
    n_ports = 16;
    hazard_policy = Ximd_machine.Hazard.Raise;
    max_cycles = 1_000_000;
    sequencer = Research;
    result_latency = 1 }

let validate t =
  if t.n_fus < 1 || t.n_fus > 16 then
    invalid_arg "Config.make: n_fus must be in [1, 16]";
  if t.mem_words <= 0 then
    invalid_arg "Config.make: mem_words must be positive";
  if t.n_ports <= 0 then invalid_arg "Config.make: n_ports must be positive";
  if t.max_cycles <= 0 then
    invalid_arg "Config.make: max_cycles must be positive";
  if t.result_latency < 1 || t.result_latency > 8 then
    invalid_arg "Config.make: result_latency must be in [1, 8]";
  t

let make ?(n_fus = default.n_fus) ?(mem_words = default.mem_words)
    ?(mem_organisation = default.mem_organisation)
    ?(n_ports = default.n_ports) ?(hazard_policy = default.hazard_policy)
    ?(max_cycles = default.max_cycles) ?(sequencer = default.sequencer)
    ?(result_latency = default.result_latency) () =
  validate
    { n_fus; mem_words; mem_organisation; n_ports; hazard_policy;
      max_cycles; sequencer; result_latency }

let prototype () =
  make ~n_fus:8
    ~mem_organisation:(Ximd_machine.Memory.Distributed { n_fus = 8 })
    ~sequencer:Prototype ~result_latency:3 ()

(* --- Machine-shape keys ------------------------------------------------ *)

type setting = { key : string; value : Ximd_json.t; set : t -> t }

let fail key fmt =
  Printf.ksprintf (fun msg -> Error (Printf.sprintf "key %S: %s" key msg)) fmt

(* Each reader checks a value's type and range and gives the setting
   that stores it. *)
let positive set key value =
  match Ximd_json.to_int value with
  | None -> fail key "expected an integer"
  | Some n when n < 1 -> fail key "must be positive (got %d)" n
  | Some n -> Ok { key; value = Ximd_json.Int n; set = set n }

let flag set key value =
  match Ximd_json.to_bool value with
  | None -> fail key "expected a boolean"
  | Some b -> Ok { key; value; set = set b }

let sequencer_name = function
  | Research -> "research"
  | Prototype -> "prototype"

let known_sequencer key value =
  match Ximd_json.to_str value with
  | None -> fail key "expected a string"
  | Some name -> (
    match
      List.find_opt (fun s -> sequencer_name s = name) [ Research; Prototype ]
    with
    | Some s -> Ok { key; value; set = (fun t -> { t with sequencer = s }) }
    | None -> fail key "expected \"research\" or \"prototype\" (got %S)" name)

(* The one table: each key, in the order [pp] prints them, how its value
   reads, and where a configuration keeps it. *)
let shape_table =
  [ ( "max_cycles",
      positive (fun n t -> { t with max_cycles = n }),
      fun t -> Ximd_json.Int t.max_cycles );
    ( "latency",
      positive (fun n t -> { t with result_latency = n }),
      fun t -> Ximd_json.Int t.result_latency );
    ( "mem_words",
      positive (fun n t -> { t with mem_words = n }),
      fun t -> Ximd_json.Int t.mem_words );
    ( "ports",
      positive (fun n t -> { t with n_ports = n }),
      fun t -> Ximd_json.Int t.n_ports );
    ( "distributed",
      flag (fun b t ->
        { t with
          mem_organisation =
            (if b then Ximd_machine.Memory.Distributed { n_fus = t.n_fus }
             else Ximd_machine.Memory.Shared) }),
      fun t -> Ximd_json.Bool (t.mem_organisation <> Ximd_machine.Memory.Shared)
    );
    ( "sequencer",
      known_sequencer,
      fun t -> Ximd_json.String (sequencer_name t.sequencer) ) ]

let shape_keys = List.map (fun (key, _, _) -> key) shape_table

let read pairs =
  List.fold_left
    (fun acc (key, value) ->
      Result.bind acc (fun settings ->
        match List.find_opt (fun (k, _, _) -> k = key) shape_table with
        | None -> Ok settings
        | Some (_, read, _) -> (
          match read key value with
          | Ok s -> Ok (s :: settings)
          | Error msg -> Error (key, msg))))
    (Ok []) pairs
  |> Result.map List.rev

let apply settings t =
  match validate (List.fold_left (fun t s -> s.set t) t settings) with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let key_value s = (s.key, s.value)

let pp fmt t =
  List.map
    (fun (key, _, get) ->
      match get t with
      | Ximd_json.String name -> key ^ "=" ^ name
      | value -> key ^ "=" ^ Ximd_json.to_string value)
    shape_table
  |> String.concat " "
  |> Format.pp_print_string fmt
