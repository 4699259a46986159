module Core = Ximd_core
module Config = Core.Config
module Observation = Ximd_ref.Observation

(* File-based conformance corpus.

   A case is a plain [.xasm] program (parsed by {!Ximd_asm.Source}) with
   an expected-result sidecar next to it ([foo.xasm] -> [foo.expect]).
   The sidecar holds one section per applicable sequencing model:

   {v
   == xsim
   outcome: halted/7
   reg r1 = 3
   mem[4] = 12
   hazard @2: ...
   == vsim
   ...
   v}

   Section bodies are the byte-stable {!Observation.summary} of the
   reference interpreter.  [check_file] re-derives each section from the
   reference, compares it byte-for-byte against the sidecar, and runs
   the full lockstep comparison ({!Diff.check_model}) against the
   engine.  Sidecars are generated (and regenerated after an intended
   semantic change) with [tools/fuzz expect].

   Run parameters that are not part of the program text ride in
   directive comments, anywhere in the file:

   {v
   ; conf: fuel=200 latency=3 mem=64 ports=4
   ; conf: models=xsim,vsim
   v}

   Recognised keys: [fuel] (max cycles, default 2000), [latency]
   (result latency, default 1), [mem] (memory words, default 65536),
   [organisation=shared|distributed], [ports] (default 16),
   [seq=research|prototype], [models] (comma-separated subset of
   xsim/vsim/t500; default all applicable). *)

(* Every binding remembers the line it came from, so diagnostics for a
   bad value can name it; the loader never raises on malformed input. *)
type directives = (string * (int * string)) list

let known_directive_keys =
  [ "fuel"; "latency"; "mem"; "organisation"; "ports"; "seq"; "models" ]

let ( let* ) = Result.bind

let parse_directives source : (directives, string) result =
  let lines = String.split_on_char '\n' source in
  let prefix = "; conf:" in
  List.fold_left
    (fun acc (lineno, line) ->
      let* acc = acc in
      let line = String.trim line in
      if
        String.length line <= String.length prefix
        || String.sub line 0 (String.length prefix) <> prefix
      then Ok acc
      else
        String.sub line (String.length prefix)
          (String.length line - String.length prefix)
        |> String.split_on_char ' '
        |> List.filter (fun tok -> tok <> "")
        |> List.fold_left
             (fun acc tok ->
               let* acc = acc in
               match String.index_opt tok '=' with
               | None ->
                 Error
                   (Printf.sprintf
                      "line %d: conf directive token %S is not key=value"
                      lineno tok)
               | Some i ->
                 let key = String.sub tok 0 i in
                 let value =
                   String.sub tok (i + 1) (String.length tok - i - 1)
                 in
                 if not (List.mem key known_directive_keys) then
                   Error
                     (Printf.sprintf
                        "line %d: unknown conf key %S (known: %s)" lineno key
                        (String.concat ", " known_directive_keys))
                 else (
                   match List.assoc_opt key acc with
                   | Some (first, _) ->
                     Error
                       (Printf.sprintf
                          "line %d: duplicate conf key %S (first set on \
                           line %d)"
                          lineno key first)
                   | None -> Ok (acc @ [ (key, (lineno, value)) ])))
             (Ok acc))
    (Ok [])
    (List.mapi (fun i line -> (i + 1, line)) lines)

let directive_int directives key ~default =
  match List.assoc_opt key directives with
  | None -> Ok default
  | Some (lineno, v) -> (
    match int_of_string_opt v with
    | Some n -> Ok n
    | None ->
      Error
        (Printf.sprintf "line %d: conf key %S: %S is not a number" lineno key
           v))

let config_of_directives directives ~n_fus =
  let* mem_words = directive_int directives "mem" ~default:65536 in
  let* mem_organisation =
    match List.assoc_opt "organisation" directives with
    | Some (_, "distributed") -> Ok (Ximd_machine.Memory.Distributed { n_fus })
    | Some (_, "shared") | None -> Ok Ximd_machine.Memory.Shared
    | Some (lineno, other) ->
      Error
        (Printf.sprintf
           "line %d: conf key \"organisation\": expected \"shared\" or \
            \"distributed\" (got %S)"
           lineno other)
  in
  let* sequencer =
    match List.assoc_opt "seq" directives with
    | Some (_, "prototype") -> Ok Config.Prototype
    | Some (_, "research") | None -> Ok Config.Research
    | Some (lineno, other) ->
      Error
        (Printf.sprintf
           "line %d: conf key \"seq\": expected \"research\" or \
            \"prototype\" (got %S)"
           lineno other)
  in
  let* n_ports = directive_int directives "ports" ~default:16 in
  let* max_cycles = directive_int directives "fuel" ~default:2000 in
  let* result_latency = directive_int directives "latency" ~default:1 in
  match
    Config.make ~n_fus ~mem_words ~mem_organisation ~n_ports
      ~hazard_policy:Ximd_machine.Hazard.Record ~max_cycles ~sequencer
      ~result_latency ()
  with
  | config -> Ok config
  | exception Invalid_argument msg ->
    let lineno =
      (* blame the first conf line if any; the shape came from there *)
      match directives with (_, (l, _)) :: _ -> l | [] -> 0
    in
    Error (Printf.sprintf "line %d: conf: %s" lineno msg)

let directives_of_config (config : Config.t) =
  let parts =
    [ Printf.sprintf "fuel=%d" config.max_cycles;
      Printf.sprintf "latency=%d" config.result_latency;
      Printf.sprintf "mem=%d" config.mem_words;
      Printf.sprintf "ports=%d" config.n_ports ]
    @ (match config.mem_organisation with
       | Ximd_machine.Memory.Distributed _ -> [ "organisation=distributed" ]
       | Ximd_machine.Memory.Shared -> [])
    @
    match config.sequencer with
    | Config.Prototype -> [ "seq=prototype" ]
    | Config.Research -> []
  in
  Printf.sprintf "; conf: %s\n" (String.concat " " parts)

let models_of_directives directives program =
  let applicable = Diff.applicable_models program in
  match List.assoc_opt "models" directives with
  | None -> Ok applicable
  | Some (lineno, spec) ->
    let* named =
      String.split_on_char ',' spec
      |> List.fold_left
           (fun acc name ->
             let* acc = acc in
             match Diff.model_of_name (String.trim name) with
             | Some m -> Ok (m :: acc)
             | None ->
               Error
                 (Printf.sprintf
                    "line %d: conf key \"models\": unknown model %S" lineno
                    name))
           (Ok [])
      |> Result.map List.rev
    in
    Ok (List.filter (fun m -> List.mem m applicable) named)

(* --- Loading ---------------------------------------------------------- *)

type case = {
  path : string;
  program : Core.Program.t;
  config : Config.t;
  models : Diff.model list;
}

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let load path =
  let prefix e = path ^ ": " ^ e in
  match read_file path with
  | Error msg -> Error msg
  | Ok source -> (
    match Ximd_asm.Source.parse source with
    | Error e ->
      Error
        (Format.asprintf "%s: parse error: %a" path Ximd_asm.Source.pp_error
           e)
    | Ok program -> (
      let case =
        let* directives =
          Result.map_error prefix (parse_directives source)
        in
        let* config =
          Result.map_error prefix
            (config_of_directives directives
               ~n_fus:(Core.Program.n_fus program))
        in
        let* models =
          Result.map_error prefix (models_of_directives directives program)
        in
        Ok { path; program; config; models }
      in
      match case with
      | Error _ as e -> e
      | Ok case -> (
        match Core.Program.validate case.program case.config with
        | Ok () -> Ok case
        | Error errors ->
          Error
            (Printf.sprintf "%s: invalid program:\n%s" path
               (String.concat "\n" errors)))))

let expect_path path =
  (try Filename.chop_extension path with Invalid_argument _ -> path)
  ^ ".expect"

(* --- Expected-result sidecars ----------------------------------------- *)

let expected_content case =
  let buf = Buffer.create 512 in
  List.iter
    (fun model ->
      Buffer.add_string buf ("== " ^ Diff.model_name model ^ "\n");
      let obs = Diff.observe_reference model case.program case.config in
      Buffer.add_string buf (Observation.summary obs))
    case.models;
  Buffer.contents buf

(* --- Checking --------------------------------------------------------- *)

(* A conformance case passes when (1) the reference's summary matches
   the sidecar byte-for-byte for every selected model and (2) the
   engine agrees with the reference in full lockstep. *)
let check_case case =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match read_file (expect_path case.path) with
   | Error _ when not (Sys.file_exists (expect_path case.path)) ->
     err
       "%s: missing sidecar %s (generate it with `tools/fuzz expect %s`)"
       case.path (expect_path case.path) case.path
   | Error msg ->
     err "%s: cannot read sidecar %s: %s" case.path (expect_path case.path)
       msg
   | Ok expected ->
     let actual = expected_content case in
     if expected <> actual then
       err
         "%s: reference result differs from sidecar %s\n\
          --- expected ---\n\
          %s--- actual ---\n\
          %s(regenerate with `tools/fuzz expect %s` if the change is \
          intended)"
         case.path (expect_path case.path) expected actual case.path);
  List.iter
    (fun model ->
      match Diff.check_model model case.program case.config with
      | None -> ()
      | Some d ->
        err "%s: engine diverges from reference under %s\n%s" case.path
          (Diff.model_name d.Diff.model)
          (Diff.divergence_to_string d))
    case.models;
  match List.rev !errors with
  | [] -> Ok ()
  | errors -> Error (String.concat "\n" errors)

let check_file path =
  match load path with
  | Error e -> Error e
  | Ok case -> check_case case

(* --- Discovery -------------------------------------------------------- *)

let discover dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".xasm")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []
