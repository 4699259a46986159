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
    let jobs =
      Unix.openfile "../examples/jobs/campaign.jsonl" [ Unix.O_RDONLY ] 0
    in
    Fun.protect
      ~finally:(fun () -> Unix.close jobs)
      (fun () ->
        ignore
          (run_tool dir ~stdin:jobs ~code:6 serve
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
    let jobs =
      Unix.openfile "../examples/jobs/campaign.jsonl" [ Unix.O_RDONLY ] 0
    in
    let code =
      Fun.protect
        ~finally:(fun () -> Unix.close jobs)
        (fun () ->
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
   from the run farm, nor a clean-looking run of no cases. *)
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
          [ ( fuzz, [ "run"; "--count"; "1"; "--domains"; "65" ], 2,
              "fuzz: --domains must be at most 64" );
            ( fuzz, [ "run"; "--seed"; "1"; "--count"; "-5" ], 2,
              "fuzz: --count must be at least 1" );
            (serve, [ "--domains"; "65" ], 1, "--domains must be at most 64") ]))

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
      @ List.map export_case stuck_halt_runs ) ]
