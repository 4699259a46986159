(* Differential-fuzzing CLI.  See `fuzz --help` or README "Fuzzing". *)

open Cmdliner
module Gen = Ximd_gen

(* Bad usage, and a path fuzz cannot read or write, exit 2: its 1 means
   a divergence. *)
let tool = "fuzz"
let code = 2

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
    Cli_common.write_output ~code ~tool (base ^ ".report.txt")
      (Printf.sprintf "seed %d index %d\n%s%s\n" seed index
         (Gen.Conform.directives_of_config c.config)
         (Gen.Diff.divergence_to_string d));
    Cli_common.write_output ~code ~tool (base ^ ".shrunk.xasm")
      (case_file shrunk);
    Cli_common.write_output ~code ~tool (base ^ ".original.xasm")
      (case_file c);
    Printf.printf "artifacts written under %s\n" dir

(* Fuzzing on the supervised pool: each case is one pool job, so a
   checker crash on one case becomes a report instead of taking the run
   down, and reports land in index order whatever the domain count.
   Every case is checked; the lowest-index divergence is then shrunk. *)
let cmd_run seed count artifacts (farm : Cli_common.farm_opts) =
  if count < 1 then
    Cli_common.bad_input ~code ~tool "--count must be at least 1";
  Printexc.record_backtrace true;
  let obs = Cli_common.farm_observer farm in
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
        seed index (Gen.Diff.model_name d.model)
        (Gen.Conform.directives_of_config c.Gen.Proggen.config)
        (Gen.Diff.divergence_to_string d)
    | `Crash exn ->
      incr crashes;
      Printf.printf "CRASH at seed %d index %d: %s\n" seed index exn
  in
  let t0 = Unix.gettimeofday () in
  let pool =
    Ximd_farm.Pool.create ~domains:farm.domains ?obs
      ~init:(fun _ -> ())
      ~work:(fun () ~seq index ->
        let c = case_at ~seed ~index in
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
  for index = 0 to count - 1 do
    ignore (Ximd_farm.Pool.submit pool index)
  done;
  Ximd_farm.Pool.join pool;
  let dt = Unix.gettimeofday () -. t0 in
  Cli_common.write_farm_observer ~code ~tool farm obs;
  (match !first with
   | None -> ()
   | Some (index, c, d) ->
     shrink_and_report ~seed ~index ~artifacts c d);
  Printf.printf
    "fuzz: %d cases on %d domain%s, %d divergence%s, %d crash%s, seed %d, \
     %.1fs\n"
    count farm.domains
    (if farm.domains = 1 then "" else "s")
    !divergences
    (if !divergences = 1 then "" else "s")
    !crashes
    (if !crashes = 1 then "" else "es")
    seed dt;
  exit (if !divergences + !crashes > 0 then 1 else 0)

(* --- one / shrink ----------------------------------------------------- *)

let cmd_one seed index dump =
  let c = case_at ~seed ~index in
  Printf.printf "case seed %d index %d:\n" seed index;
  print_string
    (if dump then case_file c else Gen.Conform.directives_of_config c.config);
  match Gen.Diff.check_case c with
  | Gen.Diff.Agree { models } ->
    Printf.printf "agree under %s\n"
      (String.concat ", " (List.map Gen.Diff.model_name models));
    exit 0
  | Gen.Diff.Diverge d ->
    print_string (Gen.Diff.divergence_to_string d);
    print_newline ();
    exit 1

let cmd_shrink seed index =
  let c = case_at ~seed ~index in
  match shrink_case c with
  | None ->
    Printf.printf "case seed %d index %d does not diverge; nothing to shrink\n"
      seed index;
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
  let path = Gen.Conform.expect_path case.Gen.Conform.path in
  Cli_common.write_output ~code ~tool path (Gen.Conform.expected_content case);
  path

(* The conformance corpus pins the *reference* semantics, so a shrunk
   divergence lands as program + reference-derived sidecar: the case
   fails conformance until the engine is fixed, then pins the fixed
   behaviour forever. *)
let cmd_save seed index name dir =
  let c = case_at ~seed ~index in
  let c = match shrink_case c with Some s -> s | None -> c in
  let path = Filename.concat dir (name ^ ".xasm") in
  Cli_common.write_output ~code ~tool path (case_file c);
  (match Gen.Conform.load path with
   | Ok case ->
     let expect = write_expect case in
     Printf.printf "wrote %s and %s\n" path expect
   | Error e ->
     Cli_common.bad_input ~code ~tool "saved %s but cannot load it back: %s"
       path e);
  exit 0

(* --- expect / suites -------------------------------------------------- *)

let cmd_expect dir files =
  let files =
    match files with [] -> Gen.Conform.discover dir | fs -> fs
  in
  if files = [] then
    Cli_common.bad_input ~code ~tool "no .xasm files to generate sidecars for";
  List.iter
    (fun path ->
      match Gen.Conform.load path with
      | Error e -> Cli_common.bad_input ~code ~tool "%s" e
      | Ok case ->
        let expect = write_expect case in
        Printf.printf "wrote %s\n" expect)
    files;
  exit 0

let cmd_suites dir =
  let files = Gen.Conform.discover dir in
  if files = [] then
    Cli_common.bad_input ~code ~tool "no conformance cases under %s" dir;
  let failures = ref 0 in
  List.iter
    (fun path ->
      match Gen.Conform.check_file path with
      | Ok () -> Printf.printf "ok   %s\n" path
      | Error e ->
        incr failures;
        Printf.printf "FAIL %s\n%s\n" path e)
    files;
  Printf.printf "suites: %d cases, %d failure%s\n" (List.length files)
    !failures
    (if !failures = 1 then "" else "s");
  exit (if !failures > 0 then 1 else 0)

(* --- Command line ----------------------------------------------------- *)

(* Every fuzz command documents the same exit codes. *)
let cmd_info ?man name ~doc =
  Cmd.info name ~doc ?man
    ~exits:
      (Cli_common.exit_infos
         [ (0, "no divergence, crash or failing case");
           (1, "a divergence, a crash or a failing case");
           (2, "bad usage, or a path fuzz cannot read or write") ])

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")

let index_arg =
  Arg.(
    value & opt int 0
    & info [ "index" ] ~docv:"I" ~doc:"Case index under the seed.")

let dir_arg ~doc =
  Arg.(value & opt string "suites" & info [ "dir" ] ~docv:"DIR" ~doc)

let run_cmd =
  let count_arg =
    Arg.(
      value & opt int 1000
      & info [ "count" ] ~docv:"N" ~doc:"Cases to check, at least 1.")
  and artifacts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:"Write the first divergence's report and its shrunk and \
                original programs under $(docv).")
  in
  Cmd.v
    (cmd_info "run"
       ~doc:
         "fuzz cases on the supervised run farm, where a case that kills \
          the checker is reported, not fatal; report every divergence and \
          crash in index order, then shrink the lowest-index divergence")
    Term.(
      const cmd_run $ seed_arg $ count_arg $ artifacts_arg
      $ Cli_common.farm_term ~code ~tool ())

let one_cmd =
  let dump_flag =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print the whole case.")
  in
  Cmd.v
    (cmd_info "one" ~doc:"check one case")
    Term.(const cmd_one $ seed_arg $ index_arg $ dump_flag)

let shrink_cmd =
  Cmd.v
    (cmd_info "shrink" ~doc:"minimise a divergent case")
    Term.(const cmd_shrink $ seed_arg $ index_arg)

let save_cmd =
  let name_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME" ~doc:"Save as $(docv).xasm.")
  in
  Cmd.v
    (cmd_info "save"
       ~doc:"shrink a case and land the repro in the conformance corpus")
    Term.(
      const cmd_save $ seed_arg $ index_arg $ name_arg
      $ dir_arg ~doc:"Corpus directory.")

let expect_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Cases to regenerate; default every one.")
  in
  Cmd.v
    (cmd_info "expect" ~doc:"(re)generate .expect sidecars")
    Term.(
      const cmd_expect
      $ dir_arg ~doc:"Corpus directory, when no $(i,FILE) is given."
      $ files_arg)

let suites_cmd =
  Cmd.v
    (cmd_info "suites" ~doc:"run the conformance corpus")
    Term.(const cmd_suites $ dir_arg ~doc:"Corpus directory.")

let () =
  let doc = "differential fuzzing of the cycle engine" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Random programs run in lockstep against the reference \
         interpreter under every applicable sequencing model \
         (xsim/vsim/t500); any observable difference — trace, \
         registers, memory, I/O, hazards, outcome — is a failure.";
      `P
        "Cases are seed-deterministic: (seed, index) always names the \
         same program and configuration, on every machine and run." ]
  in
  Cli_common.eval ~code
    (Cmd.group
       ~default:Term.(ret (const (`Help (`Auto, None))))
       (cmd_info "fuzz" ~doc ~man)
       [ run_cmd; one_cmd; shrink_cmd; save_cmd; expect_cmd; suites_cmd ])
