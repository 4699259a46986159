open Ximd_isa

type timing =
  | At of int
  | After of int

(* The write log is growable parallel arrays in write order, so a write
   appends without allocating once the log has grown to the run's
   output, and [reset] keeps that size.  The [saved_*] fields hold the
   port's input side as it was before cycle [saved_cycle] first
   consumed from it, so an aborted cycle can be undone ({!restore})
   without allocating; its writes are the log's entries of that
   cycle. *)
type port = {
  mutable input : (timing * Value.t) list;
  mutable last_consumed : int;             (* cycle of previous consumption *)
  mutable out_cycles : int array;          (* write log: cycles… *)
  mutable out_values : Value.t array;      (* …and values *)
  mutable out_len : int;
  mutable saved_cycle : int;               (* -1: nothing saved *)
  mutable saved_input : (timing * Value.t) list;
  mutable saved_consumed : int;
}

type t = port array

let create ?(n_ports = 16) () =
  if n_ports <= 0 then invalid_arg "Ioport.create";
  Array.init n_ports (fun _ ->
    { input = [];
      last_consumed = 0;
      out_cycles = [||];
      out_values = [||];
      out_len = 0;
      saved_cycle = -1;
      saved_input = [];
      saved_consumed = 0 })

let n_ports t = Array.length t

let check t port what =
  if port < 0 || port >= Array.length t then
    invalid_arg (Printf.sprintf "Ioport.%s: port %d out of range" what port)

let script t ~port deliveries =
  check t port "script";
  List.iter
    (fun (timing, value) ->
      (match timing with
       | At c | After c ->
         if c < 0 then invalid_arg "Ioport.script: negative delivery time");
      if Value.equal value Value.zero then
        invalid_arg "Ioport.script: delivered values must be non-zero")
    deliveries;
  t.(port).input <- deliveries;
  t.(port).last_consumed <- 0

let ready_at port timing =
  match timing with
  | At cycle -> cycle
  | After gap -> port.last_consumed + gap

(* Called before cycle [cycle] consumes a delivery of [port]. *)
let save port ~cycle =
  if port.saved_cycle <> cycle then begin
    port.saved_cycle <- cycle;
    port.saved_input <- port.input;
    port.saved_consumed <- port.last_consumed
  end

let read t ~fu ~cycle ~log port_no =
  if port_no < 0 || port_no >= Array.length t then begin
    Hazard.report log ~cycle (Hazard.Port_out_of_range { port = port_no; fu });
    Value.zero
  end
  else
    let port = t.(port_no) in
    match port.input with
    | (timing, value) :: rest when cycle >= ready_at port timing ->
      save port ~cycle;
      port.input <- rest;
      port.last_consumed <- cycle;
      value
    | _ -> Value.zero

let grow_log port =
  let cap = Array.length port.out_cycles in
  let cap' = max 8 (2 * cap) in
  let cycles = Array.make cap' 0 and values = Array.make cap' Value.zero in
  Array.blit port.out_cycles 0 cycles 0 cap;
  Array.blit port.out_values 0 values 0 cap;
  port.out_cycles <- cycles;
  port.out_values <- values

let write t ~fu ~cycle ~log port_no value =
  if port_no < 0 || port_no >= Array.length t then
    Hazard.report log ~cycle (Hazard.Port_out_of_range { port = port_no; fu })
  else begin
    let port = t.(port_no) in
    if port.out_len = Array.length port.out_cycles then grow_log port;
    let k = port.out_len in
    port.out_cycles.(k) <- cycle;
    port.out_values.(k) <- value;
    port.out_len <- k + 1
  end

let reset t =
  Array.iter
    (fun port ->
      port.input <- [];
      port.last_consumed <- 0;
      port.out_len <- 0;
      port.saved_cycle <- -1;
      port.saved_input <- [])
    t

let restore t ~cycle =
  for i = 0 to Array.length t - 1 do
    let port = t.(i) in
    if port.saved_cycle = cycle then begin
      port.input <- port.saved_input;
      port.last_consumed <- port.saved_consumed;
      port.saved_cycle <- -1
    end;
    while port.out_len > 0 && port.out_cycles.(port.out_len - 1) = cycle do
      port.out_len <- port.out_len - 1
    done
  done

let output t ~port =
  check t port "output";
  let port = t.(port) in
  List.init port.out_len (fun k -> (port.out_cycles.(k), port.out_values.(k)))

let pending t ~port =
  check t port "pending";
  List.length t.(port).input
