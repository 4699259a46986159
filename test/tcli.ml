(* The command-line tools as processes.  Their observability exports,
   Figure 10 address traces and campaign rollup are compared byte for
   byte with committed goldens: a change to when or in what order the
   engine reports a cycle changes these bytes even where two runs of
   one build still agree with each other.  A path a tool cannot read
   or write must end in one "TOOL: PATH: REASON" line and exit 1 (2
   for fuzz), never in an uncaught exception. *)

(* Tests run in the build's test directory; the tools run from the
   build root, where the example paths below (and the campaign's
   relative "file" payloads) resolve, as they do from a checkout. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ?(stdin = Unix.stdin) ~stdout ~stderr exe args =
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  and err =
    Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let here = Sys.getcwd () in
  Sys.chdir "..";
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir here;
      Unix.close out;
      Unix.close err)
    (fun () ->
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) stdin out err
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code -> code
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "%s killed by signal %d" exe s)

let with_temp_dir f =
  let dir = Filename.temp_dir "ximd-cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let check_golden golden path =
  Alcotest.(check string) golden (read_file golden) (read_file path)

(* Runs [exe args] from the build root, checks its exit code and
   returns what it printed on stdout. *)
let run_tool dir ?stdin ~code exe args =
  let stdout = Filename.concat dir "stdout"
  and stderr = Filename.concat dir "stderr" in
  let got = spawn ?stdin ~stdout ~stderr exe args in
  if got <> code then
    Alcotest.failf "%s %s: exit %d, expected %d; stderr:\n%s" exe
      (String.concat " " args) got code (read_file stderr);
  read_file stdout

(* [f] with the serve campaign open as a descriptor, for a tool's
   stdin. *)
let with_campaign f =
  let jobs =
    Unix.openfile "../examples/jobs/campaign.jsonl" [ Unix.O_RDONLY ] 0
  in
  Fun.protect ~finally:(fun () -> Unix.close jobs) (fun () -> f jobs)

(* --- Observability exports ---------------------------------------------- *)

let xsim = "bin/xsim_cli.exe"
let vsim = "bin/vsim_cli.exe"
let xcc = "bin/xcc_cli.exe"
let xasm = "bin/xasm_cli.exe"
let serve = "bin/ximd_serve.exe"
let fuzz = "tools/fuzzer/fuzz.exe"

let minmax_data =
  [ "-r"; "r5=4"; "-m"; "256=5"; "-m"; "257=3"; "-m"; "258=4"; "-m"; "259=7" ]

(* Each run writes the four exports of one sink (Chrome trace, metrics,
   slot accounting, critical path) into goldens/obs/NAME.*.json and
   must exit with the code given.  The rand:42:5 schedule draws its
   cycles from [0, 10000), after MINMAX's data-less 5-cycle run halts,
   so minmax_fired adds the paper's data and a 16-cycle window in which
   ss, cc and drop faults fire. *)
let export_runs =
  [ ("minmax", xsim, [ "examples/asm/minmax.xasm" ], 0);
    ( "minmax_faults",
      xsim,
      [ "examples/asm/minmax.xasm"; "--record-hazards"; "--detect-deadlock";
        "--inject"; "rand:42:5" ],
      0 );
    ( "minmax_fired",
      xsim,
      [ "examples/asm/minmax.xasm"; "--record-hazards"; "--detect-deadlock";
        "--inject"; "rand:42:5:16" ]
      @ minmax_data,
      0 );
    ("tproc_vsim", vsim, [ "examples/asm/tproc.xasm" ], 0);
    ("tproc_t500", xsim, [ "--t500"; "examples/asm/tproc.xasm" ], 0);
    ("anybarrier", xsim, [ "examples/asm/anybarrier.xasm" ], 0) ]

(* Export runs that stick FU 0 halted at cycle 2, a path the reference
   interpreter does not model: under vsim FU 0 still supplies the row's
   control and the run halts after 6 cycles; under t500 the stuck
   leader stops its whole bank, so the run deadlocks after 69 cycles
   and exits 4.  Their cases come last in the suite, so the cases
   before them keep their numbers. *)
let stuck_halt_runs =
  [ ( "tproc_vsim_faults",
      vsim,
      [ "--inject"; "halt@2:0"; "--record-hazards"; "examples/asm/tproc.xasm" ],
      0 );
    ( "tproc_t500_faults",
      xsim,
      [ "--t500"; "--inject"; "halt@2:0"; "--record-hazards";
        "--detect-deadlock"; "examples/asm/tproc.xasm" ],
      4 ) ]

let exports = [ ("--trace-events", "trace"); ("--metrics", "metrics");
                ("--account", "account"); ("--critical-path", "critpath") ]

let test_exports (name, exe, args, code) () =
  with_temp_dir (fun dir ->
    let out kind = Filename.concat dir (kind ^ ".json") in
    let flags =
      List.concat_map (fun (flag, kind) -> [ flag; out kind ]) exports
    in
    ignore (run_tool dir ~code exe (args @ flags));
    List.iter
      (fun (_, kind) ->
        check_golden (Printf.sprintf "goldens/obs/%s.%s.json" name kind)
          (out kind))
      exports)

(* Line 2 of the campaign rollup is its logical view, byte-stable across
   runs and domain counts. *)
let test_campaign_rollup () =
  with_temp_dir (fun dir ->
    let report = Filename.concat dir "rollup.json" in
    ignore
      (with_campaign (fun jobs ->
         run_tool dir ~stdin:jobs ~code:6 serve
           [ "--domains"; "2"; "--campaign-report"; report ]));
    match String.split_on_char '\n' (read_file report) with
    | _ :: logical :: _ ->
      Alcotest.(check string) "logical view"
        (read_file "goldens/obs/campaign.logical.json")
        (logical ^ "\n")
    | _ -> Alcotest.fail "rollup has fewer than two lines")

(* --- Figure 10 CLI parity traces ---------------------------------------- *)

let parity_runs =
  [ ("minmax.xsim.trace", xsim,
     [ "--trace"; "--stats"; "examples/asm/minmax.xasm" ]);
    ("tproc.vsim.trace", vsim,
     [ "--trace"; "--stats"; "examples/asm/tproc.xasm" ]);
    ("tproc.t500.trace", xsim,
     [ "--t500"; "--trace"; "--stats"; "examples/asm/tproc.xasm" ]);
    ("gcd.xcc.trace", xcc,
     [ "examples/xc/gcd.xc"; "--run"; "48,18"; "--trace" ]) ]

let test_parity (golden, exe, args) () =
  with_temp_dir (fun dir ->
    Alcotest.(check string) golden
      (read_file ("goldens/" ^ golden))
      (run_tool dir ~code:0 exe args))

(* --- Unreadable inputs and unwritable outputs --------------------------- *)

(* Every command must exit 1 (fuzz: 2, its code for bad usage) with
   exactly one line on stderr naming the tool and the path.  [missing]
   is a path under a directory that does not exist; the temporary
   directory itself stands in for a directory given where a file is
   expected. *)
let test_bad_paths () =
  with_temp_dir (fun dir ->
    let missing name = Filename.concat (Filename.concat dir "missing") name in
    let minmax = "examples/asm/minmax.xasm" in
    let commands =
      List.map
        (fun flag ->
          (xsim, [ minmax; flag; missing "out" ], "xsim", missing "out"))
        [ "--metrics"; "--trace-events"; "--account"; "--critical-path";
          "--profile-folded" ]
      @ [ ( xsim,
            [ "examples/asm/pipeline.xasm"; "--compare";
              "examples/asm/pipeline_vliw.xasm"; "--compare-json";
              missing "c.json" ],
            "xsim", missing "c.json" );
          (vsim, [ "examples/asm/tproc.xasm"; "--metrics"; missing "m.json" ],
           "vsim", missing "m.json");
          (xcc, [ "examples/xc/dot.xc"; "--sched-json"; missing "x.json" ],
           "xcc", missing "x.json");
          (xcc, [ dir ], "xcc", dir);
          (xasm, [ minmax; "-o"; missing "x.img" ], "xasm", missing "x.img");
          (xasm, [ "-d"; dir ], "xasm", dir);
          ( fuzz,
            [ "run"; "--seed"; "1"; "--count"; "2"; "--campaign-report";
              missing "x.json" ],
            "fuzz", missing "x.json" );
          ( fuzz,
            [ "save"; "--seed"; "1"; "--index"; "0"; "--name"; "foo";
              "--dir"; Filename.concat dir "missing" ],
            "fuzz", missing "foo.xasm" ) ]
    in
    let stderr = Filename.concat dir "stderr" in
    List.iter
      (fun (exe, args, tool, path) ->
        let what = String.concat " " (tool :: args) in
        let code =
          spawn ~stdout:(Filename.concat dir "stdout") ~stderr exe args
        in
        Alcotest.(check int) (what ^ ": exit code")
          (if exe = fuzz then 2 else 1)
          code;
        let prefix = Printf.sprintf "%s: %s: " tool path in
        match String.split_on_char '\n' (read_file stderr) with
        | [ line; "" ] when String.starts_with ~prefix line -> ()
        | _ -> Alcotest.failf "%s: stderr is not one %S line:\n%s" what prefix
                 (read_file stderr))
      commands;
    (* ximd-serve reaches the report only after the whole campaign *)
    let code =
      with_campaign (fun jobs ->
        spawn ~stdin:jobs ~stdout:(Filename.concat dir "stdout") ~stderr
          serve [ "--campaign-report"; missing "r.json" ])
    in
    Alcotest.(check int) "ximd-serve --campaign-report: exit code" 1 code;
    Alcotest.(check string) "ximd-serve: one line"
      (Printf.sprintf "ximd-serve: %s: No such file or directory\n"
         (missing "r.json"))
      (read_file stderr))

(* Out-of-range counts are bad usage too: one line on stderr, nothing on
   stdout, and fuzz's exit 2 or ximd-serve's exit 1 — not a backtrace
   from the run farm, nor a clean-looking run of no cases.  So are no
   cycle fuel and a register or memory range the simulators cannot
   dump: xsim and vsim refuse them with exit 1 before the run. *)
let test_bad_usage () =
  with_temp_dir (fun dir ->
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        List.iter
          (fun (exe, args, code, message) ->
            let what = String.concat " " (exe :: args) in
            let stdout = Filename.concat dir "stdout"
            and stderr = Filename.concat dir "stderr" in
            let got = spawn ~stdin:null ~stdout ~stderr exe args in
            Alcotest.(check int) (what ^ ": exit code") code got;
            Alcotest.(check string) (what ^ ": stderr") (message ^ "\n")
              (read_file stderr);
            Alcotest.(check string) (what ^ ": stdout") "" (read_file stdout))
          ([ ( fuzz, [ "run"; "--count"; "1"; "--domains"; "65" ], 2,
               "fuzz: --domains must be at most 64" );
             ( fuzz, [ "run"; "--seed"; "1"; "--count=-5" ], 2,
               "fuzz: --count must be at least 1" );
             (serve, [ "--domains"; "65" ], 1, "--domains must be at most 64")
           ]
          @ List.concat_map
              (fun exe ->
                List.map
                  (fun (args, message) ->
                    (exe, args @ [ "examples/asm/countdown.xasm" ], 1, message))
                  [ ( [ "--dump-mem"; "99999999:2" ],
                      "--dump-mem: 99999999:2 lies outside the 65536-word \
                       memory" );
                    ( [ "--dump-mem=-4:2" ],
                      "--dump-mem: -4:2 lies outside the 65536-word memory" );
                    ( [ "--dump-mem"; "0:-1" ],
                      "--dump-mem: length -1 is negative" );
                    ( [ "--dump-regs"; "r1,zz" ],
                      {|--dump-regs: bad register "zz"|} );
                    ([ "--max-cycles=0" ], "--max-cycles must be at least 1")
                  ])
              [ xsim; vsim ])))

(* xcc's scheduler exports, as the CLI writes them: the explain text and
   the ximd-sched/1 report byte for byte against the goldens, and a
   Chrome trace that parses with a traceEvents list. *)
let test_xcc_sched_exports () =
  with_temp_dir (fun dir ->
    let json = Filename.concat dir "sched.json"
    and trace = Filename.concat dir "trace.json" in
    let explain =
      run_tool dir ~code:0 xcc
        [ "examples/xc/dot.xc"; "--width"; "4"; "--sched-json"; json;
          "--sched-trace"; trace; "--explain" ]
    in
    Alcotest.(check string) "explain" (read_file "goldens/dot.explain.txt")
      explain;
    check_golden "goldens/dot.sched.json" json;
    match Ximd_json.parse (read_file trace) with
    | Error e -> Alcotest.failf "sched trace: %s" e
    | Ok j -> (
      match Ximd_json.member "traceEvents" j with
      | Some (Ximd_json.List (_ :: _)) -> ()
      | Some _ | None -> Alcotest.fail "sched trace has no traceEvents"))

(* --- Checks that once ran only as CI smoke steps -------------------------- *)

let lines text = String.split_on_char '\n' text

let has_line ~prefix text =
  List.exists (String.starts_with ~prefix) (lines text)

(* --help's EXIT STATUS section is Run.exit_codes, one "CODE DOC" line
   per entry whatever the column layout, and rendering the manual
   raises no cmdliner complaint. *)
let test_help_exit_codes () =
  let words line =
    String.concat " "
      (List.filter (( <> ) "") (String.split_on_char ' ' line))
  in
  with_temp_dir (fun dir ->
    List.iter
      (fun exe ->
        let help =
          List.map words
            (lines (run_tool dir ~code:0 exe [ "--help=plain" ]))
        in
        Alcotest.(check string) (exe ^ " --help: stderr") ""
          (read_file (Filename.concat dir "stderr"));
        List.iter
          (fun (code, doc) ->
            let line = Printf.sprintf "%d %s" code doc in
            if not (List.mem line help) then
              Alcotest.failf "%s --help has no line %S" exe line)
          Ximd_core.Run.exit_codes)
      [ xsim; vsim ])

(* The pipeline example's why-analysis documents as the CLI writes
   them, and its --compare report; a VLIW coding the global sequencer
   rejects ends the comparison with one line and exit 1. *)
let test_pipeline_why_analysis () =
  with_temp_dir (fun dir ->
    let out name = Filename.concat dir name in
    let pipeline = "examples/asm/pipeline.xasm" in
    ignore
      (run_tool dir ~code:0 xsim
         [ pipeline; "--account"; out "account.json"; "--critical-path";
           out "critpath.json" ]);
    check_golden "goldens/pipeline.account.json" (out "account.json");
    check_golden "goldens/pipeline.critpath.json" (out "critpath.json");
    let report =
      run_tool dir ~code:0 xsim
        [ pipeline; "--compare"; "examples/asm/pipeline_vliw.xasm";
          "--compare-json"; out "compare.json" ]
    in
    check_golden "goldens/pipeline.compare.json" (out "compare.json");
    Alcotest.(check bool) "report header" true
      (has_line ~prefix:"XIMD vs VLIW" report);
    let minmax = "examples/asm/minmax.xasm" in
    ignore (run_tool dir ~code:1 xsim [ minmax; "--compare"; minmax ]);
    Alcotest.(check string) "rejected coding"
      "vliw: Vsim.run: program is not control-consistent (VLIW programs \
       must duplicate the control fields in every parcel of a row)\n"
      (read_file (out "stderr")))

(* Folded stacks, one "fuN;frame count" line per sampled pair, next to
   the printed profile and timeline. *)
let test_profile_folded () =
  with_temp_dir (fun dir ->
    let folded = Filename.concat dir "profile.folded" in
    ignore
      (run_tool dir ~code:0 xsim
         [ "examples/asm/minmax.xasm"; "--profile"; "--timeline";
           "--profile-folded"; folded ]);
    Alcotest.(check bool) "a fu0 line" true
      (has_line ~prefix:"fu0;" (read_file folded)))

(* The minmax_fired run's postmortem lists the faults that fired, and
   two runs print the same bytes. *)
let test_fired_postmortem () =
  with_temp_dir (fun dir ->
    let args =
      [ "examples/asm/minmax.xasm"; "--record-hazards"; "--detect-deadlock";
        "--inject"; "rand:42:5:16"; "--postmortem"; "json" ]
      @ minmax_data
    in
    let first = run_tool dir ~code:0 xsim args in
    Alcotest.(check string) "deterministic" first
      (run_tool dir ~code:0 xsim args);
    Alcotest.(check bool) "faults fired" true
      (Tobs.contains_substring first {|"faults":[{|}))

let test_deadlock_exits_4 () =
  with_temp_dir (fun dir ->
    ignore
      (run_tool dir ~code:4 xsim
         [ "examples/asm/deadlock.xasm"; "--detect-deadlock" ]))

(* The campaign read from stdin gives the golden stream, and exits 6
   for its budget-busting jobs.  Campaign telemetry leaves the stream
   alone: every record line still equals the golden, the summary embeds
   the merged metrics, and the Chrome trace has one track per worker
   domain. *)
let test_serve_stream_golden () =
  with_temp_dir (fun dir ->
    let golden = read_file "goldens/serve_campaign.jsonl" in
    Alcotest.(check string) "plain stream" golden
      (with_campaign (fun jobs ->
         run_tool dir ~stdin:jobs ~code:6 serve [ "--domains"; "2" ]));
    let report = Filename.concat dir "rollup.json"
    and trace = Filename.concat dir "trace.json" in
    let stream =
      with_campaign (fun jobs ->
        run_tool dir ~stdin:jobs ~code:6 serve
          [ "--domains"; "2"; "--campaign-report"; report;
            "--campaign-trace"; trace ])
    in
    let records_and_summary text =
      match List.rev (lines text) with
      | "" :: summary :: records -> (List.rev records, summary)
      | _ -> Alcotest.failf "not a newline-terminated stream:\n%s" text
    in
    let records, summary = records_and_summary stream in
    Alcotest.(check (list string)) "record lines with telemetry"
      (fst (records_and_summary golden))
      records;
    List.iter
      (fun needle ->
        if not (Tobs.contains_substring summary needle) then
          Alcotest.failf "summary has no %s: %s" needle summary)
      [ {|"schema":"ximd-summary/1"|}; {|"metrics":{|} ];
    Alcotest.(check bool) "rollup schema" true
      (Tobs.contains_substring (read_file report)
         {|"schema":"ximd-campaign/1"|});
    let trace = read_file trace in
    List.iter
      (fun needle ->
        if not (Tobs.contains_substring trace needle) then
          Alcotest.failf "campaign trace has no %s" needle)
      [ {|"traceEvents"|}; "domain 0"; "domain 1" ])

(* The rollup's logical line is the same at 4 domains as the golden
   taken at 2, and the opt-in heartbeat ticks on stderr. *)
let test_rollup_at_4_domains () =
  with_temp_dir (fun dir ->
    let report = Filename.concat dir "rollup.json" in
    ignore
      (with_campaign (fun jobs ->
         run_tool dir ~stdin:jobs ~code:6 serve
           [ "--domains"; "4"; "--campaign-report"; report;
             "--progress-every"; "16" ]));
    (match lines (read_file report) with
     | _ :: logical :: _ ->
       Alcotest.(check string) "logical view"
         (read_file "goldens/obs/campaign.logical.json")
         (logical ^ "\n")
     | _ -> Alcotest.fail "rollup has fewer than two lines");
    Alcotest.(check bool) "heartbeat" true
      (Tobs.contains_substring
         (read_file (Filename.concat dir "stderr"))
         {|"schema":"ximd-progress/1"|}))

let test_repeat_three () =
  with_temp_dir (fun dir ->
    let out =
      run_tool dir ~code:0 xsim
        [ "--repeat"; "3"; "examples/asm/minmax.xasm" ]
    in
    Alcotest.(check int) "run lines" 3
      (List.length
         (List.filter (String.starts_with ~prefix:"run ") (lines out))))

(* Every schema tag the tools print is documented in the README. *)
let test_readme_schema_tags () =
  let readme = read_file "../README.md" in
  List.iter
    (fun tag ->
      if not (Tobs.contains_substring readme tag) then
        Alcotest.failf "README.md does not name %s" tag)
    [ "ximd-account/1"; "ximd-campaign/1"; "ximd-compare/1";
      "ximd-critpath/1"; "ximd-job/1"; "ximd-metrics/1"; "ximd-progress/1";
      "ximd-result/1"; "ximd-sched/1"; "ximd-summary/1" ]

(* --- fuzz subcommands and command lines the parser refuses --------------- *)

let copy_dir src dst =
  Array.iter
    (fun name ->
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
        Out_channel.output_string oc (read_file (Filename.concat src name))))
    (Sys.readdir src)

(* Each fuzz subcommand on its success path.  The corpus half regenerates
   every sidecar of a copy of suites/ twice, each time byte-identical to
   the committed ones, then checks the copy. *)
let test_fuzz_subcommands () =
  with_temp_dir (fun dir ->
    let fuzz_ok args = run_tool dir ~code:0 fuzz args in
    let summary =
      fuzz_ok [ "run"; "--seed"; "42"; "--count"; "50"; "--domains"; "2" ]
    in
    (* the summary ends with the run's wall time *)
    let prefix =
      "fuzz: 50 cases on 2 domains, 0 divergences, 0 crashes, seed 42, "
    in
    if
      not
        (String.starts_with ~prefix summary
        && List.length (lines summary) = 2)
    then Alcotest.failf "run: not one %S line:\n%s" prefix summary;
    let case = [ "--seed"; "42"; "--index"; "473" ] in
    Alcotest.(check string) "one"
      "case seed 42 index 473:\n\
       ; conf: max_cycles=300 latency=3 mem_words=65536 ports=4 \
       distributed=false sequencer=research\n\
       agree under xsim, vsim, t500\n"
      (fuzz_ok ("one" :: case));
    Alcotest.(check string) "shrink"
      "case seed 42 index 473 does not diverge; nothing to shrink\n"
      (fuzz_ok ("shrink" :: case));
    with_temp_dir (fun saved ->
      let path = Filename.concat saved "repro.xasm" in
      Alcotest.(check string) "save"
        (Printf.sprintf "wrote %s and %s\n" path
           (Ximd_gen.Conform.expect_path path))
        (fuzz_ok ("save" :: case @ [ "--name"; "repro"; "--dir"; saved ]));
      match Ximd_gen.Conform.check_file path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "saved case does not load back: %s" e);
    with_temp_dir (fun copy ->
      copy_dir "../suites" copy;
      let cases = Ximd_gen.Conform.discover copy in
      let each f = String.concat "" (List.map f cases) in
      for _ = 1 to 2 do
        Alcotest.(check string) "expect"
          (each (fun p -> "wrote " ^ Ximd_gen.Conform.expect_path p ^ "\n"))
          (fuzz_ok [ "expect"; "--dir"; copy ]);
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".expect" then
              Alcotest.(check string) name
                (read_file (Filename.concat "../suites" name))
                (read_file (Filename.concat copy name)))
          (Sys.readdir "../suites")
      done;
      Alcotest.(check string) "suites"
        (each (fun p -> "ok   " ^ p ^ "\n")
         ^ "suites: 19 cases, 0 failures\n")
        (fuzz_ok [ "suites"; "--dir"; copy ])))

(* A command line the parser refuses is bad usage like any other: exit
   1 (fuzz: 2), nothing on stdout, and never cmdliner's 124 or an
   escaped exception's 125.  --help, and fuzz with no command, exit
   0. *)
let test_refused_command_lines () =
  with_temp_dir (fun dir ->
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        let stdout = Filename.concat dir "stdout"
        and stderr = Filename.concat dir "stderr" in
        let countdown = "examples/asm/countdown.xasm"
        and dot = "examples/xc/dot.xc" in
        List.iter
          (fun (exe, args) ->
            let what = String.concat " " (exe :: args) in
            let got = spawn ~stdin:null ~stdout ~stderr exe args in
            Alcotest.(check int) (what ^ ": exit code")
              (if exe = fuzz then 2 else 1)
              got;
            Alcotest.(check string) (what ^ ": stdout") "" (read_file stdout))
          (List.concat_map
             (fun exe ->
               [ (exe, [ "--bogus"; countdown ]);
                 (exe, [ "--max-cycles"; "abc"; countdown ]);
                 (exe, [ "/nonexistent.xasm" ]);
                 (exe, []) ])
             [ xsim; vsim ]
          @ [ (xasm, [ "--bogus"; countdown ]);
              (xasm, [ "--listing=yes"; countdown ]);
              (xasm, [ "/nonexistent.xasm" ]);
              (xasm, []);
              (xcc, [ "--bogus"; dot ]);
              (xcc, [ "--width"; "x"; dot ]);
              (xcc, [ "/nonexistent.xc" ]);
              (xcc, []);
              (serve, [ "--bogus" ]);
              (serve, [ "--domains"; "x" ]);
              (serve, [ "--progress-every=-1" ]);
              (fuzz, [ "bogus" ]);
              (fuzz, [ "run"; "--bogus" ]);
              (fuzz, [ "run"; "--count"; "x" ]);
              (fuzz, [ "run"; "--count"; "1"; "--progress-every=-1" ]);
              (fuzz, [ "one"; "--index"; "x" ]);
              (fuzz, [ "save"; "--seed"; "1" ]) ]);
        List.iter
          (fun (exe, args) ->
            ignore (run_tool dir ~stdin:null ~code:0 exe args))
          (List.map (fun exe -> (exe, [ "--help=plain" ]))
             [ xsim; vsim; xasm; xcc; serve; fuzz ]
          @ [ (fuzz, []); (fuzz, [ "run"; "--help=plain" ]) ])))

let export_case ((name, _, _, _) as run) =
  Alcotest.test_case (name ^ " exports golden") `Quick (test_exports run)

let suite =
  [ ( "cli",
      List.map export_case export_runs
      @ [ Alcotest.test_case "campaign rollup logical line golden" `Quick
            test_campaign_rollup ]
      @ List.map
          (fun ((golden, _, _) as run) ->
            Alcotest.test_case (golden ^ " golden") `Quick (test_parity run))
          parity_runs
      @ [ Alcotest.test_case "bad paths exit 1 with one line" `Quick
            test_bad_paths;
          Alcotest.test_case "bad usage exits with one line" `Quick
            test_bad_usage;
          Alcotest.test_case "xcc scheduler exports golden" `Quick
            test_xcc_sched_exports ]
      @ List.map export_case stuck_halt_runs
      @ [ Alcotest.test_case "help lists the exit codes" `Quick
            test_help_exit_codes;
          Alcotest.test_case "pipeline why-analysis and compare golden"
            `Quick test_pipeline_why_analysis;
          Alcotest.test_case "profile-folded writes fu0 lines" `Quick
            test_profile_folded;
          Alcotest.test_case "fired faults in the postmortem" `Quick
            test_fired_postmortem;
          Alcotest.test_case "deadlock watchdog exits 4" `Quick
            test_deadlock_exits_4;
          Alcotest.test_case "serve stream golden, with telemetry" `Quick
            test_serve_stream_golden;
          Alcotest.test_case "rollup at 4 domains with heartbeat" `Quick
            test_rollup_at_4_domains;
          Alcotest.test_case "repeat prints one line per run" `Quick
            test_repeat_three;
          Alcotest.test_case "README names every schema tag" `Quick
            test_readme_schema_tags;
          Alcotest.test_case "fuzz subcommands on their success paths" `Quick
            test_fuzz_subcommands;
          Alcotest.test_case "refused command lines exit with the usage code"
            `Quick test_refused_command_lines ] ) ]
