(* Differential-fuzzing CLI.  See `fuzz help` or README "Fuzzing". *)

module Gen = Ximd_gen
module Program = Ximd_core.Program

let usage =
  "usage: fuzz COMMAND [OPTIONS]\n\n\
   Differential fuzzing of the cycle engine against the reference\n\
   interpreter: random programs run in lockstep under every applicable\n\
   sequencing model (xsim/vsim/t500); any observable difference —\n\
   trace, registers, memory, I/O, hazards, outcome — is a failure.\n\n\
   commands:\n\
  \  run     --seed S --count N [--domains D] [--artifacts DIR]\n\
  \          fuzz N >= 1 cases on the supervised run farm (D worker\n\
  \          domains, 1 to 64, default 1; a case that kills the checker\n\
  \          is reported, not fatal); report every divergence and crash\n\
  \          in index order, then shrink the lowest-index divergence\n\
  \          (exit 1);\n\
  \          [--campaign-trace FILE] Chrome trace of the run,\n\
  \          [--campaign-report FILE] ximd-campaign/1 rollup,\n\
  \          [--progress-every N] ximd-progress/1 heartbeat to stderr\n\
  \  one     --seed S --index I [--dump]            check one case\n\
  \  shrink  --seed S --index I                     minimise a divergent case\n\
  \  save    --seed S --index I --name NAME [--dir DIR]\n\
  \          shrink and land the repro in the conformance corpus\n\
  \  expect  FILE...                                (re)generate .expect sidecars\n\
  \  suites  [--dir DIR]                            run the conformance corpus\n\
  \  help\n\n\
   Cases are seed-deterministic: (seed, index) always names the same\n\
   program and configuration, on every machine and run.\n"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("fuzz: " ^ s);
      exit 2)
    fmt

(* Every file fuzz writes goes through here.  A path it cannot write is
   bad usage: one "fuzz: PATH: REASON" line and exit 2, never an
   uncaught [Sys_error]. *)
let write_file path content =
  try
    Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc content)
  with Sys_error msg ->
    let prefix = path ^ ": " in
    die "%s: %s" path
      (if String.starts_with ~prefix msg then
         String.sub msg (String.length prefix)
           (String.length msg - String.length prefix)
       else msg)

(* --- Option parsing (flag value pairs, tools/ house style) ------------ *)

let parse_options spec args =
  let positional = ref [] in
  let rec go = function
    | [] -> ()
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "--" -> (
      match List.assoc_opt arg spec with
      | Some (`Int set) -> (
        match rest with
        | v :: rest -> (
          match int_of_string_opt v with
          | Some n ->
            set n;
            go rest
          | None -> die "%s expects an integer, got %s" arg v)
        | [] -> die "%s expects a value" arg)
      | Some (`String set) -> (
        match rest with
        | v :: rest ->
          set v;
          go rest
        | [] -> die "%s expects a value" arg)
      | Some (`Flag set) ->
        set ();
        go rest
      | None -> die "unknown option %s" arg)
    | arg :: rest ->
      positional := arg :: !positional;
      go rest
  in
  go args;
  List.rev !positional

let case_at ~seed ~index = Gen.Proggen.generate ~seed ~index Gen.Proggen.case

(* A case as the suite file [save] writes: its [; conf:] line, then its
   program (whose [.fus] line gives the width). *)
let case_file (c : Gen.Proggen.case) =
  Gen.Conform.directives_of_config c.config
  ^ Ximd_asm.Source.to_source c.program

let diverges c =
  match Gen.Diff.check_case c with
  | Gen.Diff.Diverge _ -> true
  | Gen.Diff.Agree _ -> false

let shrink_case c =
  if diverges c then Some (Gen.Shrink.minimise ~predicate:diverges c)
  else None

(* --- run -------------------------------------------------------------- *)

(* Shrinks a divergent case and reports the repro: as files under
   [artifacts], or with the command that lands it in the corpus. *)
let shrink_and_report ~seed ~index ~artifacts c (d : Gen.Diff.divergence) =
  let shrunk = Gen.Shrink.minimise ~predicate:diverges c in
  Printf.printf "shrunk repro of index %d (%d parcels, was %d):\n%s\n" index
    (Gen.Shrink.parcels shrunk) (Gen.Shrink.parcels c) (case_file shrunk);
  match artifacts with
  | None ->
    Printf.printf
      "save it to the conformance corpus once the engine is fixed:\n\
      \  tools/fuzz save --seed %d --index %d --name NAME\n"
      seed index
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let base = Filename.concat dir (Printf.sprintf "seed%d-index%d" seed index) in
    write_file (base ^ ".report.txt")
      (Printf.sprintf "seed %d index %d\n%s%s\n" seed index
         (Gen.Conform.directives_of_config c.config)
         (Gen.Diff.divergence_to_string d));
    write_file (base ^ ".shrunk.xasm") (case_file shrunk);
    write_file (base ^ ".original.xasm") (case_file c);
    Printf.printf "artifacts written under %s\n" dir

(* Fuzzing on the supervised pool: each case is one pool job, so a
   checker crash on one case becomes a report instead of taking the run
   down, and reports land in index order whatever the domain count.
   Every case is checked; the lowest-index divergence is then shrunk. *)
let cmd_run args =
  let seed = ref 0 and count = ref 1000 and domains = ref 1 in
  let artifacts = ref None
  and trace_out = ref None
  and report_out = ref None
  and progress_every = ref 0 in
  let _ =
    parse_options
      [ ("--seed", `Int (( := ) seed));
        ("--count", `Int (( := ) count));
        ("--domains", `Int (( := ) domains));
        ("--artifacts", `String (fun d -> artifacts := Some d));
        ("--campaign-trace", `String (fun f -> trace_out := Some f));
        ("--campaign-report", `String (fun f -> report_out := Some f));
        ("--progress-every", `Int (( := ) progress_every)) ]
      args
  in
  if !count < 1 then die "--count must be at least 1";
  if !domains < 1 then die "--domains must be at least 1";
  if !domains > Ximd_farm.Pool.max_domains then
    die "--domains must be at most %d" Ximd_farm.Pool.max_domains;
  Printexc.record_backtrace true;
  let obs =
    if !trace_out <> None || !report_out <> None || !progress_every > 0 then
      Some
        (Ximd_obs.Farmobs.create ~progress_every:!progress_every
           ~progress:prerr_endline ~clock:Unix.gettimeofday ())
    else None
  in
  let complete ~seq label quality =
    match obs with
    | None -> ()
    | Some o ->
      Ximd_obs.Farmobs.on_complete o ~seq
        ~id:(Printf.sprintf "case-%d" seq)
        ~result:(Ximd_obs.Span.outcome ~label ~quality)
        ~attempts:1 ()
  in
  let divergences = ref 0 and crashes = ref 0 and first = ref None in
  let emit (index, verdict) =
    match verdict with
    | `Agree -> ()
    | `Diverge (c, (d : Gen.Diff.divergence)) ->
      incr divergences;
      if !first = None then first := Some (index, c, d);
      Printf.printf "DIVERGENCE at seed %d index %d (model %s)\n%s%s\n"
        !seed index (Gen.Diff.model_name d.model)
        (Gen.Conform.directives_of_config c.Gen.Proggen.config)
        (Gen.Diff.divergence_to_string d)
    | `Crash exn ->
      incr crashes;
      Printf.printf "CRASH at seed %d index %d: %s\n" !seed index exn
  in
  let t0 = Unix.gettimeofday () in
  let pool =
    Ximd_farm.Pool.create ~domains:!domains ?obs
      ~init:(fun _ -> ())
      ~work:(fun () ~seq index ->
        let c = case_at ~seed:!seed ~index in
        match Gen.Diff.check_case c with
        | Gen.Diff.Agree _ ->
          complete ~seq "agree" Ximd_obs.Span.Good;
          (index, `Agree)
        | Gen.Diff.Diverge d ->
          complete ~seq "diverge" Ximd_obs.Span.Bad;
          (index, `Diverge (c, d)))
      ~crashed:(fun ~seq index ~exn ~backtrace:_ ->
        complete ~seq "crash" Ximd_obs.Span.Bad;
        (index, `Crash exn))
      ~dropped:(fun ~seq index ->
        complete ~seq "dropped" Ximd_obs.Span.Bad;
        (index, `Crash "dropped before run"))
      ~emit ()
  in
  for index = 0 to !count - 1 do
    ignore (Ximd_farm.Pool.submit pool index)
  done;
  Ximd_farm.Pool.join pool;
  let dt = Unix.gettimeofday () -. t0 in
  (match obs with
   | None -> ()
   | Some o ->
     Option.iter
       (fun path ->
         write_file path (Ximd_obs.Farmobs.chrome_json o);
         Printf.eprintf "campaign trace written to %s\n%!" path)
       !trace_out;
     Option.iter
       (fun path ->
         write_file path (Ximd_obs.Farmobs.rollup_json o);
         Printf.eprintf "campaign report written to %s\n%!" path)
       !report_out);
  (match !first with
   | None -> ()
   | Some (index, c, d) ->
     shrink_and_report ~seed:!seed ~index ~artifacts:!artifacts c d);
  Printf.printf
    "fuzz: %d cases on %d domain%s, %d divergence%s, %d crash%s, seed %d, \
     %.1fs\n"
    !count !domains
    (if !domains = 1 then "" else "s")
    !divergences
    (if !divergences = 1 then "" else "s")
    !crashes
    (if !crashes = 1 then "" else "es")
    !seed dt;
  exit (if !divergences + !crashes > 0 then 1 else 0)

(* --- one / shrink ----------------------------------------------------- *)

let cmd_one args =
  let seed = ref 0 and index = ref 0 and dump = ref false in
  let _ =
    parse_options
      [ ("--seed", `Int (( := ) seed));
        ("--index", `Int (( := ) index));
        ("--dump", `Flag (fun () -> dump := true)) ]
      args
  in
  let c = case_at ~seed:!seed ~index:!index in
  Printf.printf "case seed %d index %d:\n" !seed !index;
  print_string
    (if !dump then case_file c else Gen.Conform.directives_of_config c.config);
  match Gen.Diff.check_case c with
  | Gen.Diff.Agree { models } ->
    Printf.printf "agree under %s\n"
      (String.concat ", " (List.map Gen.Diff.model_name models));
    exit 0
  | Gen.Diff.Diverge d ->
    print_string (Gen.Diff.divergence_to_string d);
    print_newline ();
    exit 1

let cmd_shrink args =
  let seed = ref 0 and index = ref 0 in
  let _ =
    parse_options
      [ ("--seed", `Int (( := ) seed)); ("--index", `Int (( := ) index)) ]
      args
  in
  let c = case_at ~seed:!seed ~index:!index in
  match shrink_case c with
  | None ->
    Printf.printf "case seed %d index %d does not diverge; nothing to shrink\n"
      !seed !index;
    exit 0
  | Some shrunk ->
    Printf.printf "shrunk %d -> %d parcels:\n%s" (Gen.Shrink.parcels c)
      (Gen.Shrink.parcels shrunk) (case_file shrunk);
    (match Gen.Diff.check_case shrunk with
     | Gen.Diff.Diverge d ->
       print_newline ();
       print_string (Gen.Diff.divergence_to_string d);
       print_newline ()
     | Gen.Diff.Agree _ -> ());
    exit 1

(* --- save ------------------------------------------------------------- *)

(* Writes a case's sidecar next to its program; returns its path. *)
let write_expect case =
  let path = Ximd_gen.Conform.expect_path case.Ximd_gen.Conform.path in
  write_file path (Ximd_gen.Conform.expected_content case);
  path

(* The conformance corpus pins the *reference* semantics, so a shrunk
   divergence lands as program + reference-derived sidecar: the case
   fails conformance until the engine is fixed, then pins the fixed
   behaviour forever. *)
let cmd_save args =
  let seed = ref 0 and index = ref 0 and name = ref "" and dir = ref "suites" in
  let _ =
    parse_options
      [ ("--seed", `Int (( := ) seed));
        ("--index", `Int (( := ) index));
        ("--name", `String (( := ) name));
        ("--dir", `String (( := ) dir)) ]
      args
  in
  if !name = "" then die "save needs --name";
  let c = case_at ~seed:!seed ~index:!index in
  let c = match shrink_case c with Some s -> s | None -> c in
  let path = Filename.concat !dir (!name ^ ".xasm") in
  write_file path (case_file c);
  (match Ximd_gen.Conform.load path with
   | Ok case ->
     let expect = write_expect case in
     Printf.printf "wrote %s and %s\n" path expect
   | Error e -> die "saved %s but cannot load it back: %s" path e);
  exit 0

(* --- expect / suites -------------------------------------------------- *)

let cmd_expect args =
  let dir = ref "suites" in
  let files =
    parse_options [ ("--dir", `String (( := ) dir)) ] args
  in
  let files =
    match files with [] -> Ximd_gen.Conform.discover !dir | fs -> fs
  in
  if files = [] then die "no .xasm files to generate sidecars for";
  List.iter
    (fun path ->
      match Ximd_gen.Conform.load path with
      | Error e -> die "%s" e
      | Ok case ->
        let expect = write_expect case in
        Printf.printf "wrote %s\n" expect)
    files;
  exit 0

let cmd_suites args =
  let dir = ref "suites" in
  let _ = parse_options [ ("--dir", `String (( := ) dir)) ] args in
  let files = Ximd_gen.Conform.discover !dir in
  if files = [] then die "no conformance cases under %s" !dir;
  let failures = ref 0 in
  List.iter
    (fun path ->
      match Ximd_gen.Conform.check_file path with
      | Ok () -> Printf.printf "ok   %s\n" path
      | Error e ->
        incr failures;
        Printf.printf "FAIL %s\n%s\n" path e)
    files;
  Printf.printf "suites: %d cases, %d failure%s\n" (List.length files)
    !failures
    (if !failures = 1 then "" else "s");
  exit (if !failures > 0 then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> cmd_run args
  | _ :: "one" :: args -> cmd_one args
  | _ :: "shrink" :: args -> cmd_shrink args
  | _ :: "save" :: args -> cmd_save args
  | _ :: "expect" :: args -> cmd_expect args
  | _ :: "suites" :: args -> cmd_suites args
  | _ :: ("help" | "--help" | "-h") :: _ | [ _ ] | [] ->
    print_string usage;
    exit 0
  | _ :: cmd :: _ -> die "unknown command %s (try `fuzz help`)" cmd
