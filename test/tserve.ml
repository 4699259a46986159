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

let suite =
  [ ( "serve",
      [ Alcotest.test_case "stdin reader hanging up does not kill the server"
          `Quick test_stdin_reader_hangs_up;
        Alcotest.test_case "socket reader hanging up does not wedge the server"
          `Quick test_socket_reader_hangs_up ] ) ]
