(* ximd-serve as a process: a reader that hangs up mid-stream must
   neither kill the server nor wedge it. *)

(* Tests run in the build's test directory; the server runs from the
   build root, where the campaign's relative "file" payloads resolve. *)
let spawn_serve args ~stdin ~stdout =
  let here = Sys.getcwd () in
  Sys.chdir "..";
  Fun.protect
    ~finally:(fun () -> Sys.chdir here)
    (fun () ->
      Unix.create_process "bin/ximd_serve.exe"
        (Array.of_list ("ximd_serve" :: args))
        stdin stdout Unix.stderr)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let campaign = "../examples/jobs/campaign.jsonl"

(* `ximd_serve < campaign.jsonl | head -1` *)
let test_stdin_reader_hangs_up () =
  let jobs = Unix.openfile campaign [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn_serve [ "--domains"; "1" ] ~stdin:jobs ~stdout:w in
  Unix.close jobs;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  ignore (input_line ic);
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED _ -> ()
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Alcotest.failf "ximd-serve killed by signal %d" s

let connect path =
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a wedged server fails the test instead of hanging it *)
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
  let rec go tries =
    try Unix.connect sock (Unix.ADDR_UNIX path)
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 250;
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let test_socket_reader_hangs_up () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ximd-serve-%d.sock" (Unix.getpid ()))
  in
  let pid =
    spawn_serve [ "--domains"; "2"; "--socket"; path ] ~stdin:Unix.stdin
      ~stdout:Unix.stdout
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* far more output than the socket buffers hold, so the server is
         still writing when this client hangs up *)
      let sock, ic, oc = connect path in
      for i = 1 to 3000 do
        Printf.fprintf oc {|{"workload":"minmax","id":"j%d"}|} i;
        output_char oc '\n'
      done;
      flush oc;
      ignore (input_line ic);
      Unix.close sock;
      let sock, ic, oc = connect path in
      output_string oc (read_file campaign);
      flush oc;
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let stream = In_channel.input_all ic in
      Unix.close sock;
      Alcotest.(check string) "the next client gets the golden stream"
        (read_file "goldens/serve_campaign.jsonl")
        stream)

(* A job line longer than the input cap (16 MiB) is one rejected record
   in its stream position, quoting none of its bytes, and the campaign
   goes on.  Its id alone is 17 MiB, so a reader without the cap would
   run it and echo the id back. *)
let test_overlong_line_is_rejected () =
  let cap = Ximd_asm.Source.max_file_bytes in
  let jobs = Filename.temp_file "ximd-serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jobs)
    (fun () ->
      Out_channel.with_open_bin jobs (fun oc ->
        output_string oc {|{"workload":"tproc","id":"a"}|};
        output_string oc "\n{\"workload\":\"tproc\",\"id\":\"";
        output_string oc (String.make (cap + (1 lsl 20)) 'Q');
        output_string oc "\"}\n";
        output_string oc {|{"workload":"tproc","id":"b"}|};
        output_char oc '\n');
      let stdin = Unix.openfile jobs [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      let r, w = Unix.pipe ~cloexec:true () in
      let pid = spawn_serve [ "--domains"; "1" ] ~stdin ~stdout:w in
      Unix.close stdin;
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let out = In_channel.input_all ic in
      close_in ic;
      let code =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Alcotest.failf "ximd-serve killed by signal %d" s
      in
      let kind line =
        match Ximd_json.parse line with
        | Ok json -> (
          match Ximd_json.member "schema" json with
          | Some (Ximd_json.String "ximd-summary/1") -> "summary"
          | _ -> (
            match Ximd_json.member "status" json with
            | Some status -> (
              match Ximd_json.member "kind" status with
              | Some (Ximd_json.String k) -> k
              | _ -> "?")
            | None -> "?"))
        | Error _ -> "not JSON"
      in
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' out)
      in
      Alcotest.(check (list string)) "records"
        [ "halted"; "rejected"; "halted"; "summary" ]
        (List.map kind lines);
      let rejected = List.nth lines 1 in
      Alcotest.(check bool) "the reason names the cap" true
        (Tobs.contains_substring rejected
           (Printf.sprintf "line longer than %d bytes" cap));
      Alcotest.(check bool) "no byte of the line" false
        (String.contains rejected 'Q');
      Alcotest.(check int) "exit code: a rejected record" 1 code)

let suite =
  [ ( "serve",
      [ Alcotest.test_case "stdin reader hanging up does not kill the server"
          `Quick test_stdin_reader_hangs_up;
        Alcotest.test_case "socket reader hanging up does not wedge the server"
          `Quick test_socket_reader_hangs_up;
        Alcotest.test_case "an over-long job line is one rejected record"
          `Quick test_overlong_line_is_rejected ] ) ]
