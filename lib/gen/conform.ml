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
   ; conf: max_cycles=200 latency=3 mem_words=64 ports=4
   ; conf: models=xsim,vsim
   v}

   Keys: the six machine-shape keys of a job spec ({!Config.shape_keys})
   with a job's values, names unquoted ([sequencer=prototype]), over
   the defaults at the program's width with 2000 cycles of fuel; and
   [models] (comma-separated subset of xsim/vsim/t500; default all
   applicable). *)

(* Every binding remembers the line it came from, so diagnostics for a
   bad value can name it; the loader never raises on malformed input. *)
type directives = (string * (int * string)) list

let known_directive_keys = Config.shape_keys @ [ "models" ]

let ( let* ) = Result.bind

let parse_directives source : (directives, string) result =
  let prefix = "; conf:" in
  let add lineno acc token =
    let* acc = acc in
    match String.index_opt token '=' with
    | None ->
      Error
        (Printf.sprintf "line %d: conf directive token %S is not key=value"
           lineno token)
    | Some i -> (
      let key = String.sub token 0 i in
      let value = String.sub token (i + 1) (String.length token - i - 1) in
      if not (List.mem key known_directive_keys) then
        Error
          (Printf.sprintf "line %d: unknown conf key %S (known: %s)" lineno
             key
             (String.concat ", " known_directive_keys))
      else
        match List.assoc_opt key acc with
        | Some (first, _) ->
          Error
            (Printf.sprintf
               "line %d: duplicate conf key %S (first set on line %d)" lineno
               key first)
        | None -> Ok (acc @ [ (key, (lineno, value)) ]))
  in
  String.split_on_char '\n' source
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.fold_left
       (fun acc (lineno, line) ->
         if not (String.starts_with ~prefix line) then acc
         else
           String.sub line (String.length prefix)
             (String.length line - String.length prefix)
           |> String.split_on_char ' '
           |> List.filter (( <> ) "")
           |> List.fold_left (add lineno) acc)
       (Ok [])

(* A conf value is written as a job spec writes it, except that a name
   may go unquoted. *)
let conf_value token =
  match Ximd_json.parse token with
  | Ok value -> value
  | Error _ -> Ximd_json.String token

let config_of_directives directives ~n_fus =
  let* settings =
    Config.read
      (List.map (fun (key, (_, token)) -> (key, conf_value token)) directives)
    |> Result.map_error (fun (key, msg) ->
         Printf.sprintf "line %d: conf %s" (fst (List.assoc key directives))
           msg)
  in
  Config.apply settings
    (Config.make ~n_fus ~hazard_policy:Ximd_machine.Hazard.Record
       ~max_cycles:2000 ())
  |> Result.map_error (fun msg ->
       (* blame the first conf line if any; the shape came from there *)
       let lineno = match directives with (_, (l, _)) :: _ -> l | [] -> 0 in
       Printf.sprintf "line %d: conf: %s" lineno msg)

let directives_of_config config =
  Format.asprintf "; conf: %a\n" Config.pp config

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

let load path =
  let prefix e = path ^ ": " ^ e in
  let* source = Ximd_asm.Source.read_file path in
  let* program =
    Result.map_error
      (Format.asprintf "%s: parse error: %a" path Ximd_asm.Source.pp_error)
      (Ximd_asm.Source.parse source)
  in
  let* directives = Result.map_error prefix (parse_directives source) in
  let* config =
    Result.map_error prefix
      (config_of_directives directives ~n_fus:(Core.Program.n_fus program))
  in
  let* models =
    Result.map_error prefix (models_of_directives directives program)
  in
  match Core.Program.validate program config with
  | Ok () -> Ok { path; program; config; models }
  | Error errors ->
    Error
      (Printf.sprintf "%s: invalid program:\n%s" path
         (String.concat "\n" errors))

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
  (match Ximd_asm.Source.read_file (expect_path case.path) with
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
