module Core = Ximd_core

type payload =
  | Source of string
  | File of string
  | Workload of string

type t = {
  id : string;
  index : int;
  payload : payload;
  model : Core.Engine.model;
  seed : int;
  fault : string option;
  shape : Core.Config.setting list;
  budget : int option;
  deadline_ms : int option;
  retries : int;
  detect_deadlock : bool;
  reg_inits : (Ximd_isa.Reg.t * Ximd_isa.Value.t) list;
  mem_inits : (int * Ximd_isa.Value.t) list;
  dump_regs : Ximd_isa.Reg.t list;
  raw : string;
}

let model_name = Core.Engine.model_name

let known_keys =
  [ "id"; "source"; "file"; "workload"; "model"; "seed"; "fault";
    "budget"; "deadline_ms"; "retries"; "detect_deadlock"; "regs"; "mem";
    "dump_regs" ]
  @ Core.Config.shape_keys

(* Each extractor reads one key; the whole validation short-circuits on
   the first diagnostic via let*. *)
let ( let* ) = Result.bind
let ( >>? ) r check = Result.bind r check

let opt_field json key convert what =
  match Json.member key json with
  | None -> Ok None
  | Some v -> (
    match convert v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "key %S: expected %s" key what))

let int_field json key = opt_field json key Json.to_int "an integer"
let str_field json key = opt_field json key Json.to_str "a string"
let bool_field json key = opt_field json key Json.to_bool "a boolean"

let positive key = function
  | Some v when v < 1 ->
    Error (Printf.sprintf "key %S: must be positive (got %d)" key v)
  | v -> Ok v

let non_negative key = function
  | Some v when v < 0 ->
    Error (Printf.sprintf "key %S: must be non-negative (got %d)" key v)
  | v -> Ok v

let at_most bound key = function
  | Some v when v > bound ->
    Error (Printf.sprintf "key %S: must be at most %d (got %d)" key bound v)
  | v -> Ok v

(* Each retry sleeps up to 250 ms of backoff, so ten hold a worker for
   at most about 1.7 s. *)
let max_retries = 10

let parse_regs json =
  match Json.member "regs" json with
  | None -> Ok []
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        match (Ximd_isa.Reg.of_string name, Json.to_int v) with
        | Some r, Some i -> Ok ((r, Ximd_isa.Value.of_int i) :: acc)
        | None, _ -> Error (Printf.sprintf "key \"regs\": bad register %S" name)
        | _, None ->
          Error (Printf.sprintf "key \"regs\": %s wants an integer" name))
      (Ok []) fields
    |> Result.map List.rev
  | Some _ -> Error "key \"regs\": expected an object of \"rN\": int"

let parse_mem json =
  match Json.member "mem" json with
  | None -> Ok []
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun acc (addr, v) ->
        let* acc = acc in
        match (int_of_string_opt addr, Json.to_int v) with
        | Some a, Some i when a >= 0 ->
          Ok ((a, Ximd_isa.Value.of_int i) :: acc)
        | _ -> Error (Printf.sprintf "key \"mem\": bad entry %S" addr))
      (Ok []) fields
    |> Result.map List.rev
  | Some _ -> Error "key \"mem\": expected an object of \"ADDR\": int"

let parse_dump_regs json =
  match Json.member "dump_regs" json with
  | None -> Ok []
  | Some (Json.List items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Option.bind (Json.to_str item) Ximd_isa.Reg.of_string with
        | Some r -> Ok (r :: acc)
        | None -> Error "key \"dump_regs\": expected register names")
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error "key \"dump_regs\": expected a list of register names"

(* [Json.member] returns a key's first binding, so a repeated key would
   silently shadow its later values. *)
let rec duplicate_key = function
  | [] -> None
  | (k, _) :: rest ->
    if List.mem_assoc k rest then Some k else duplicate_key rest

let of_line ~index line =
  match Json.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok json -> (
    match json with
    | Json.Obj fields -> (
      match
        ( List.find_opt (fun k -> not (List.mem k known_keys)) (Json.keys json),
          duplicate_key fields )
      with
      | Some k, _ -> Error (Printf.sprintf "unknown key %S" k)
      | None, Some k -> Error (Printf.sprintf "duplicate key %S" k)
      | None, None ->
        let* id = str_field json "id" in
        let id =
          match id with Some id -> id | None -> Printf.sprintf "job-%d" index
        in
        let* source = str_field json "source" in
        let* file = str_field json "file" in
        let* workload = str_field json "workload" in
        let* payload =
          match (source, file, workload) with
          | Some s, None, None -> Ok (Source s)
          | None, Some f, None -> Ok (File f)
          | None, None, Some w -> Ok (Workload w)
          | None, None, None ->
            Error "missing payload: one of \"source\", \"file\", \"workload\""
          | _ ->
            Error
              "conflicting payload: give exactly one of \"source\", \
               \"file\", \"workload\""
        in
        let* model = str_field json "model" in
        let* model =
          match model with
          | None -> Ok Core.Engine.Per_fu
          | Some name -> (
            match Core.Engine.model_of_name name with
            | Some model -> Ok model
            | None ->
              Error
                (Printf.sprintf
                   "key \"model\": expected \"xsim\", \"vsim\" or \"t500\" \
                    (got %S)"
                   name))
        in
        let* seed = int_field json "seed" in
        let seed = Option.value seed ~default:0 in
        let* fault = str_field json "fault" in
        let* shape = Result.map_error snd (Core.Config.read fields) in
        let* budget = int_field json "budget" >>? positive "budget" in
        let* deadline_ms =
          int_field json "deadline_ms" >>? non_negative "deadline_ms"
        in
        let* retries =
          int_field json "retries"
          >>? non_negative "retries"
          >>? at_most max_retries "retries"
        in
        let retries = Option.value retries ~default:0 in
        let* detect_deadlock = bool_field json "detect_deadlock" in
        let detect_deadlock = Option.value detect_deadlock ~default:true in
        let* reg_inits = parse_regs json in
        let* mem_inits = parse_mem json in
        let* dump_regs = parse_dump_regs json in
        Ok
          { id; index; payload; model; seed; fault; shape; budget;
            deadline_ms; retries; detect_deadlock; reg_inits; mem_inits;
            dump_regs; raw = line })
    | _ -> Error "bad JSON: job spec must be an object")

let to_json t =
  let opt key v f = match v with None -> [] | Some x -> [ (key, f x) ] in
  let int i = Json.Int i in
  let payload_field =
    match t.payload with
    | Source s -> ("source", Json.String s)
    | File f -> ("file", Json.String f)
    | Workload w -> ("workload", Json.String w)
  in
  Json.Obj
    (List.concat
       [ [ ("id", Json.String t.id);
           payload_field;
           ("model", Json.String (Core.Engine.model_name t.model));
           ("seed", Json.Int t.seed) ];
         opt "fault" t.fault (fun s -> Json.String s);
         List.map Core.Config.key_value t.shape;
         opt "budget" t.budget int;
         opt "deadline_ms" t.deadline_ms int;
         [ ("retries", Json.Int t.retries) ];
         (if t.detect_deadlock then []
          else [ ("detect_deadlock", Json.Bool false) ]);
         (if t.reg_inits = [] then []
          else
            [ ( "regs",
                Json.Obj
                  (List.map
                     (fun (r, v) ->
                       ( Ximd_isa.Reg.to_string r,
                         Json.Int (Ximd_isa.Value.to_int v) ))
                     t.reg_inits) ) ]);
         (if t.mem_inits = [] then []
          else
            [ ( "mem",
                Json.Obj
                  (List.map
                     (fun (a, v) ->
                       (string_of_int a, Json.Int (Ximd_isa.Value.to_int v)))
                     t.mem_inits) ) ]);
         (if t.dump_regs = [] then []
          else
            [ ( "dump_regs",
                Json.List
                  (List.map
                     (fun r -> Json.String (Ximd_isa.Reg.to_string r))
                     t.dump_regs) ) ]) ])
