open Ximd_isa
module Hazard = Ximd_machine.Hazard
module Program = Ximd_core.Program
module Config = Ximd_core.Config
module Run = Ximd_core.Run

(* The reference interpreter.

   A deliberately slow, straight-line implementation of the XIMD cycle
   semantics (paper §2.2), written to be read against PAPER.md and
   DESIGN.md §5 rather than to be fast: plain lists, fresh allocation
   every cycle, no arenas, no dirty stacks, no hooks, no observability.
   Its single job is to be obviously correct, so that the optimised
   {!Ximd_core.Engine} can be judged against it in lockstep
   ({!Ximd_gen.Diff}) on any program the engine accepts.

   The machine model per cycle:

   1. Each live stream's sequencer selects one instruction row (the
      stream leader's PC).  A PC outside the program is a
      [Fell_off_end] hazard and the stream fetches halt parcels.
   2. Each sequencer evaluates its branch condition against
      start-of-cycle condition codes and sync signals.
   3. Every live FU executes its data parcel, reading start-of-cycle
      registers and memory.  Results are staged, due to commit at the
      end of cycle [issue + result_latency - 1].
   4. End of cycle: due results commit.  Several writes to one
      register or memory word are a multiple-write hazard; the
      highest-numbered FU wins, the latest write on ties.  Compare
      results land in the writing FU's condition code.
   5. The sequencer commits control: a halting stream's FUs stop (their
      sync signals read DONE from then on — except under the global
      sequencer, where sync signals have no architectural role), a
      branching stream's FUs drive the sync values of their parcels and
      all receive the selected next PC.
   6. The SSETs for the next cycle form (DESIGN.md §5).

   Along the way the interpreter keeps the paper's run counters (the
   ones {!Ximd_core.Stats} keeps), by its own statement of what each
   one counts: issued data operations and nops, FU-cycles that did not
   issue, conditional branches (one per sequencer), spin slots (one per
   issuing member of a stream whose conditional branch re-selected its
   address) and the most SSETs holding a live FU after any cycle.

   After the last FU halts, remaining pipeline results drain in issue
   order, one cycle per write-back stage.

   Hazards are always recorded (the {!Ximd_machine.Hazard.Record}
   discipline); the interpreter never raises on a hazard.  Faults,
   scripted I/O input, watchdogs and observability are deliberately out
   of scope: the conformance surface is a plain program run on a plain
   machine. *)

type model = Per_fu | Global | Banked

type pending_write = {
  due : int;  (* the cycle at whose end this result commits *)
  target : [ `Reg of int | `Mem of int ];
  fu : int;
  value : Value.t;
}

type machine = {
  config : Config.t;
  program : Program.t;
  n : int;  (* number of FUs *)
  registers : Value.t array;
  mutable memory : (int * Value.t) list;  (* sparse; absent = zero *)
  port_writes : (int * Value.t) list array;  (* chronological per port *)
  pcs : int array;
  ccs : bool option array;
  sss : Sync.t array;
  halted : bool array;
  mutable cycle : int;
  mutable pending : pending_write list;  (* issue order *)
  mutable hazards : (int * Hazard.t) list;  (* chronological *)
  mutable trace : Observation.row list;  (* chronological *)
  mutable ssets : int list list;  (* the partition in effect *)
  mutable data_ops : int;
  mutable nops : int;
  mutable halted_slots : int;
  mutable spin_slots : int;
  mutable cond_branches : int;
  mutable max_streams : int;
}

let hazard m h = m.hazards <- m.hazards @ [ (m.cycle, h) ]

(* ------------------------------------------------------------------ *)
(* Streams: how FUs group under each sequencing model (paper Figure 3) *)

let n_streams model ~n =
  match model with Per_fu -> n | Global -> 1 | Banked -> 2

let stream_bounds model ~n k =
  match model with
  | Per_fu -> (k, k)
  | Global -> (0, n - 1)
  | Banked -> if k = 0 then (0, (n / 2) - 1) else (n / 2, n - 1)

(* The FU a stream's hazards are attributed to: its sequencer.  The
   global sequencer is not an FU of its own, so blame the lowest FU
   still issuing. *)
let seq_fu model m ~leader ~last =
  match model with
  | Per_fu | Banked -> leader
  | Global ->
    let rec first fu =
      if fu >= last || not m.halted.(fu) then fu else first (fu + 1)
    in
    first leader

(* ------------------------------------------------------------------ *)
(* Registers, memory, I/O ports                                        *)

let read_reg m r = m.registers.(Reg.index r)

let read_operand m = function
  | Operand.Reg r -> read_reg m r
  | Operand.Imm v -> v

(* An address is accessible to [fu] if it is in range and, under the
   distributed organisation, falls in that FU's bank. *)
let accessible m ~fu addr =
  addr >= 0
  && addr < m.config.mem_words
  &&
  match m.config.mem_organisation with
  | Ximd_machine.Memory.Shared -> true
  | Ximd_machine.Memory.Distributed { n_fus } ->
    let bank = m.config.mem_words / n_fus in
    addr / bank = fu

let read_mem m ~fu addr =
  if not (accessible m ~fu addr) then begin
    hazard m (Hazard.Mem_out_of_bounds { addr; fu });
    Value.zero
  end
  else
    match List.assoc_opt addr m.memory with
    | Some value -> value
    | None -> Value.zero

let write_mem m addr value =
  m.memory <- (addr, value) :: List.remove_assoc addr m.memory

let read_port m ~fu port =
  (* No scripted input in the conformance surface: an in-range read
     consumes nothing and yields zero, exactly like an unscripted
     {!Ximd_machine.Ioport}. *)
  if port < 0 || port >= m.config.n_ports then
    hazard m (Hazard.Port_out_of_range { port; fu });
  Value.zero

let write_port m ~fu port value =
  if port < 0 || port >= m.config.n_ports then
    hazard m (Hazard.Port_out_of_range { port; fu })
  else m.port_writes.(port) <- m.port_writes.(port) @ [ (m.cycle, value) ]

(* ------------------------------------------------------------------ *)
(* The ALU, restated from first principles (independent of
   {!Ximd_machine.Alu} so a datapath bug there cannot hide here).  All
   integer arithmetic is 32-bit two's complement; shift amounts use the
   low five bits; floats live in registers as their IEEE-754 bits. *)

let i32 = Value.to_int32
let of_i32 = Value.of_int32
let fl = Value.to_float
let of_fl = Value.of_float

let alu_bin m ~fu (op : Opcode.binop) a b =
  let shift f = of_i32 (f (i32 a) (Int32.to_int (i32 b) land 31)) in
  let div_checked f =
    if Int32.equal (i32 b) 0l then begin
      hazard m (Hazard.Div_by_zero { fu });
      Value.zero
    end
    else of_i32 (f (i32 a) (i32 b))
  in
  match op with
  | Opcode.Iadd -> of_i32 (Int32.add (i32 a) (i32 b))
  | Opcode.Isub -> of_i32 (Int32.sub (i32 a) (i32 b))
  | Opcode.Imult -> of_i32 (Int32.mul (i32 a) (i32 b))
  | Opcode.Idiv -> div_checked Int32.div
  | Opcode.Imod -> div_checked Int32.rem
  | Opcode.And -> of_i32 (Int32.logand (i32 a) (i32 b))
  | Opcode.Or -> of_i32 (Int32.logor (i32 a) (i32 b))
  | Opcode.Xor -> of_i32 (Int32.logxor (i32 a) (i32 b))
  | Opcode.Shl -> shift Int32.shift_left
  | Opcode.Shr -> shift Int32.shift_right_logical
  | Opcode.Sar -> shift Int32.shift_right
  | Opcode.Fadd -> of_fl (fl a +. fl b)
  | Opcode.Fsub -> of_fl (fl a -. fl b)
  | Opcode.Fmult -> of_fl (fl a *. fl b)
  | Opcode.Fdiv -> of_fl (fl a /. fl b)

let alu_un (op : Opcode.unop) a =
  match op with
  | Opcode.Mov -> a
  | Opcode.Ineg -> of_i32 (Int32.neg (i32 a))
  | Opcode.Not -> of_i32 (Int32.lognot (i32 a))
  | Opcode.Fneg -> of_fl (-.fl a)
  | Opcode.Itof -> of_fl (Int32.to_float (i32 a))
  | Opcode.Ftoi -> of_i32 (Int32.of_float (fl a))

let alu_cmp (op : Opcode.cmpop) a b =
  let ic rel = rel (Int32.compare (i32 a) (i32 b)) 0 in
  let fc rel = rel (compare (fl a) (fl b)) 0 in
  match op with
  | Opcode.Eq -> ic ( = )
  | Opcode.Ne -> ic ( <> )
  | Opcode.Lt -> ic ( < )
  | Opcode.Le -> ic ( <= )
  | Opcode.Gt -> ic ( > )
  | Opcode.Ge -> ic ( >= )
  | Opcode.Feq -> fc ( = )
  | Opcode.Fne -> fc ( <> )
  | Opcode.Flt -> fc ( < )
  | Opcode.Fle -> fc ( <= )
  | Opcode.Fgt -> fc ( > )
  | Opcode.Fge -> fc ( >= )

(* ------------------------------------------------------------------ *)
(* Branch-condition evaluation against start-of-cycle CC/SS state      *)

let ss_done m j = Sync.equal m.sss.(j) Sync.Done

let eval_cond m ~fu (cond : Cond.t) =
  match cond with
  | Cond.Always1 -> true
  | Cond.Always2 -> false
  | Cond.Cc j -> (
    match m.ccs.(j) with
    | Some b -> b
    | None ->
      hazard m (Hazard.Undefined_cc { cc = j; fu });
      false)
  | Cond.Ss j -> ss_done m j
  | Cond.All_ss mask -> List.for_all (ss_done m) (Cond.list_of_mask mask)
  | Cond.Any_ss mask -> List.exists (ss_done m) (Cond.list_of_mask mask)

(* ------------------------------------------------------------------ *)
(* Data-parcel execution.  Reads observe start-of-cycle state; the
   produced register/memory writes are returned as pending results due
   at the end of cycle [issue + result_latency - 1].  With the research
   model's unit latency, a store's bank check happens at issue;
   deferred stores are checked when their write-back stage arrives
   (mirroring the pipelined datapath, which cannot fault before the
   write reaches memory). *)

let addr_of_sum a b = Int32.to_int (Int32.add (i32 a) (i32 b))

let exec_data m ~fu (data : Parcel.data) =
  let due = m.cycle + m.config.result_latency - 1 in
  let unit_latency = m.config.result_latency = 1 in
  let reg_result d value =
    [ { due; target = `Reg (Reg.index d); fu; value } ]
  in
  match data with
  | Parcel.Dnop -> []
  | Parcel.Dbin { op; a; b; d } ->
    reg_result d (alu_bin m ~fu op (read_operand m a) (read_operand m b))
  | Parcel.Dun { op; a; d } -> reg_result d (alu_un op (read_operand m a))
  | Parcel.Dcmp _ -> []  (* handled by [exec_compare] *)
  | Parcel.Dload { a; b; d } ->
    let addr = addr_of_sum (read_operand m a) (read_operand m b) in
    reg_result d (read_mem m ~fu addr)
  | Parcel.Dstore { a; b } ->
    let addr = Int32.to_int (i32 (read_operand m b)) in
    if unit_latency && not (accessible m ~fu addr) then begin
      hazard m (Hazard.Mem_out_of_bounds { addr; fu });
      []
    end
    else [ { due; target = `Mem addr; fu; value = read_operand m a } ]
  | Parcel.Din { port; d } ->
    let port = Int32.to_int (i32 (read_operand m port)) in
    reg_result d (read_port m ~fu port)
  | Parcel.Dout { a; port } ->
    let port_no = Int32.to_int (i32 (read_operand m port)) in
    write_port m ~fu port_no (read_operand m a);
    []

let exec_compare m ~fu (data : Parcel.data) =
  match data with
  | Parcel.Dcmp { op; a; b } ->
    [ (fu, alu_cmp op (read_operand m a) (read_operand m b)) ]
  | Parcel.Dnop | Parcel.Dbin _ | Parcel.Dun _ | Parcel.Dload _
  | Parcel.Dstore _ | Parcel.Din _ | Parcel.Dout _ ->
    []

(* ------------------------------------------------------------------ *)
(* End-of-cycle commit.  Pending results whose write-back stage is this
   cycle leave the pipeline in issue order.  Registers commit first
   (in order of first write), then memory (in order of first store),
   then condition codes — matching the machine's port priority. *)

let first_occurrences keys =
  List.fold_left
    (fun seen k -> if List.mem k seen then seen else seen @ [ k ])
    [] keys

(* The multiple-write resolution rule: the highest-numbered FU wins,
   the latest write on ties. *)
let winning_value writes =
  List.fold_left
    (fun (winner_fu, winner_value) (fu, value) ->
      if fu >= winner_fu then (fu, value) else (winner_fu, winner_value))
    (-1, Value.zero) writes
  |> snd

let commit_registers m reg_writes =
  List.iter
    (fun reg ->
      let writes =
        List.filter_map
          (fun w ->
            match w.target with
            | `Reg r when r = reg -> Some (w.fu, w.value)
            | `Reg _ | `Mem _ -> None)
          reg_writes
      in
      match writes with
      | [ (_, value) ] -> m.registers.(reg) <- value
      | writes ->
        hazard m
          (Hazard.Multiple_reg_write
             { reg = Reg.make reg; fus = List.map fst writes });
        m.registers.(reg) <- winning_value writes)
    (first_occurrences
       (List.filter_map
          (fun w ->
            match w.target with `Reg r -> Some r | `Mem _ -> None)
          reg_writes))

let commit_memory m mem_writes =
  List.iter
    (fun addr ->
      let writes =
        List.filter_map
          (fun w ->
            match w.target with
            | `Mem a when a = addr -> Some (w.fu, w.value)
            | `Mem _ | `Reg _ -> None)
          mem_writes
      in
      match writes with
      | [ (_, value) ] -> write_mem m addr value
      | writes ->
        hazard m (Hazard.Multiple_mem_write { addr; fus = List.map fst writes });
        write_mem m addr (winning_value writes))
    (first_occurrences
       (List.filter_map
          (fun w ->
            match w.target with `Mem a -> Some a | `Reg _ -> None)
          mem_writes))

(* [staged] are this cycle's unit-latency results (already bank-checked
   at issue); longer-latency results wait in [m.pending] until their
   write-back cycle, and a deferred store's bank check happens here. *)
let commit_cycle m ~staged ~compares =
  let due, still_pending =
    List.partition (fun w -> w.due <= m.cycle) m.pending
  in
  m.pending <- still_pending;
  let due =
    List.filter
      (fun w ->
        match w.target with
        | `Reg _ -> true
        | `Mem addr ->
          if accessible m ~fu:w.fu addr then true
          else begin
            hazard m (Hazard.Mem_out_of_bounds { addr; fu = w.fu });
            false
          end)
      due
  in
  let landing = staged @ due in
  commit_registers m landing;
  commit_memory m landing;
  List.iter (fun (fu, value) -> m.ccs.(fu) <- Some value) compares

(* ------------------------------------------------------------------ *)
(* SSETs (DESIGN.md §5), restated here instead of taken from the
   engine's [Partition], so the lockstep check judges the engine's
   partition too.  Two FUs share an SSET when their control states
   provably move together: under per-FU sequencers, when the control
   operations they executed lead to the same next state; under two
   banks, when the banks go to the same address; under the global
   sequencer, always. *)

(* Where an executed control operation leads, its targets resolved
   against its PC.  A branch whose two targets coincide jumps, whatever
   its condition. *)
type successor =
  | Stopped  (* the FU halted, now or before *)
  | Jump of int
  | Fork of Cond.t * int * int  (* condition, taken, not taken *)

let successor ~pc (control : Control.t) =
  match control with
  | Control.Halt -> Stopped
  | Control.Branch { cond; t1; t2 } -> (
    let resolve = function
      | Control.Addr a -> a
      | Control.Fallthrough -> pc + 1
    in
    let a1 = resolve t1 and a2 = resolve t2 in
    if a1 = a2 then Jump a1
    else
      match cond with
      | Cond.Always1 -> Jump a1
      | Cond.Always2 -> Jump a2
      | Cond.Cc _ | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
        Fork (cond, a1, a2))

(* FUs with equal keys share an SSET; members ascending, SSETs ordered
   by lowest member. *)
let group_by n key =
  let fus = List.init n (fun fu -> fu) in
  List.filter_map
    (fun fu ->
      if List.exists (fun j -> j < fu && key j = key fu) fus then None
      else Some (List.filter (fun j -> key j = key fu) fus))
    fus

(* ------------------------------------------------------------------ *)
(* One machine cycle                                                   *)

let record_trace m =
  let row =
    { Observation.cycle = m.cycle;
      pcs =
        Array.init m.n (fun fu ->
          if m.halted.(fu) then None else Some m.pcs.(fu));
      ccs = Array.copy m.ccs;
      sss = Array.copy m.sss;
      ssets = m.ssets }
  in
  m.trace <- m.trace @ [ row ]

let all_halted m = Array.for_all Fun.id m.halted

let step model m =
  record_trace m;
  let ns = n_streams model ~n:m.n in
  let streams = List.init ns (fun k -> k) in
  let program_length = Program.length m.program in
  (* 1. Fetch: the stream leader's PC selects one row; each live member
     fetches its own parcel.  A live stream whose PC left the program
     reports Fell_off_end against its sequencer and fetches halt
     parcels. *)
  let fetched =
    List.map
      (fun k ->
        let leader, last = stream_bounds model ~n:m.n k in
        let live =
          match model with
          | Per_fu | Banked -> not m.halted.(leader)
          | Global -> not (all_halted m)
        in
        if not live then (k, false, Array.make m.n Parcel.halted)
        else begin
          let pc = m.pcs.(leader) in
          let in_range = pc >= 0 && pc < program_length in
          if not in_range then
            hazard m
              (Hazard.Fell_off_end
                 { fu = seq_fu model m ~leader ~last; addr = pc });
          let parcels = Array.make m.n Parcel.halted in
          for fu = leader to last do
            if not m.halted.(fu) then
              parcels.(fu) <-
                (if in_range then (Program.row m.program pc).(fu)
                 else Parcel.halted)
          done;
          (k, true, parcels)
        end)
      streams
  in
  let stream_ctrl k =
    let leader, _ = stream_bounds model ~n:m.n k in
    let _, live, parcels = List.nth fetched k in
    if live then parcels.(leader) else Parcel.halted
  in
  let live_member k fu =
    let _, live, _ = List.nth fetched k in
    live && not m.halted.(fu)
  in
  (* 2. Branch-condition evaluation, one per live sequencer, against
     start-of-cycle CC/SS state. *)
  let taken =
    List.map
      (fun k ->
        let leader, last = stream_bounds model ~n:m.n k in
        let _, live, _ = List.nth fetched k in
        live
        &&
        match (stream_ctrl k).Parcel.control with
        | Control.Halt -> false
        | Control.Branch { cond; _ } ->
          eval_cond m ~fu:(seq_fu model m ~leader ~last) cond)
      streams
  in
  (* 3. Data execution: every live FU, in FU order, reading
     start-of-cycle registers and memory. *)
  let staged = ref [] and compares = ref [] in
  for fu = 0 to m.n - 1 do
    let k =
      match model with
      | Per_fu -> fu
      | Global -> 0
      | Banked -> if fu < m.n / 2 then 0 else 1
    in
    if not (live_member k fu) then m.halted_slots <- m.halted_slots + 1
    else begin
      let _, _, parcels = List.nth fetched k in
      let data = parcels.(fu).Parcel.data in
      (match data with
       | Parcel.Dnop -> m.nops <- m.nops + 1
       | Parcel.Dbin _ | Parcel.Dun _ | Parcel.Dcmp _ | Parcel.Dload _
       | Parcel.Dstore _ | Parcel.Din _ | Parcel.Dout _ ->
         m.data_ops <- m.data_ops + 1);
      let writes = exec_data m ~fu data in
      let unit_latency = m.config.result_latency = 1 in
      if unit_latency then staged := !staged @ writes
      else m.pending <- m.pending @ writes;
      compares := !compares @ exec_compare m ~fu data
    end
  done;
  (* Under per-FU sequencers, where each FU's executed control operation
     leads, read before step 5 moves the PCs. *)
  let executed =
    Array.init m.n (fun fu ->
      match model with
      | Per_fu when live_member fu fu ->
        let _, _, parcels = List.nth fetched fu in
        successor ~pc:m.pcs.(fu) parcels.(fu).Parcel.control
      | Per_fu | Global | Banked -> Stopped)
  in
  (* 4. End-of-cycle commit. *)
  commit_cycle m ~staged:!staged ~compares:!compares;
  (* 5. Control commit, one stream at a time: halts stop member FUs
     (their sync signals read DONE from then on, except under the
     global sequencer); branches drive each member's parcel sync value
     and install the selected next PC into every member FU.  A
     conditional branch counts once per sequencer; when it re-selects
     the stream's own address, every issuing member spends a spin
     slot. *)
  List.iteri
    (fun k taken_k ->
      let leader, last = stream_bounds model ~n:m.n k in
      let _, live, parcels = List.nth fetched k in
      if live then
        match (stream_ctrl k).Parcel.control with
        | Control.Halt ->
          for fu = leader to last do
            if not m.halted.(fu) then begin
              m.halted.(fu) <- true;
              match model with
              | Per_fu | Banked -> m.sss.(fu) <- Sync.Done
              | Global -> ()
            end
          done
        | Control.Branch { cond; _ } as control ->
          (match model with
           | Global -> ()  (* sync signals have no architectural role *)
           | Per_fu | Banked ->
             for fu = leader to last do
               if not m.halted.(fu) then
                 m.sss.(fu) <- parcels.(fu).Parcel.sync
             done);
          let conditional =
            match cond with
            | Cond.Always1 | Cond.Always2 -> false
            | Cond.Cc _ | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ -> true
          in
          if conditional then m.cond_branches <- m.cond_branches + 1;
          let pc = m.pcs.(leader) in
          (match Control.resolve control ~pc ~taken:taken_k with
           | Some next ->
             for fu = leader to last do
               if conditional && next = pc && not m.halted.(fu) then
                 m.spin_slots <- m.spin_slots + 1;
               m.pcs.(fu) <- next
             done
           | None -> assert false))
    taken;
  (* 6. The SSETs for the next cycle.  Every halted FU is [Stopped], so
     they share one SSET; two stopped banks merge. *)
  (match model with
   | Global -> ()
   | Per_fu -> m.ssets <- group_by m.n (fun fu -> executed.(fu))
   | Banked ->
     let half = m.n / 2 in
     let next leader =
       let pc = m.pcs.(leader) in
       if m.halted.(leader) || pc < 0 || pc >= program_length then Stopped
       else Jump pc
     in
     m.ssets <- group_by m.n (fun fu -> next (if fu < half then 0 else half)));
  (* The streams this cycle leaves running: the SSETs holding a live FU.
     The global sequencer is one stream for every cycle it runs, the
     cycle it halts included. *)
  let streams =
    match model with
    | Global -> 1
    | Per_fu | Banked ->
      List.length
        (List.filter (List.exists (fun fu -> not m.halted.(fu))) m.ssets)
  in
  m.max_streams <- max m.max_streams streams;
  m.cycle <- m.cycle + 1

(* ------------------------------------------------------------------ *)
(* Whole-program runs                                                  *)

let bank_consistent program =
  let n = Program.n_fus program in
  let half = n / 2 in
  let ok = ref true in
  for addr = 0 to Program.length program - 1 do
    let row = Program.row program addr in
    Array.iteri
      (fun fu (p : Parcel.t) ->
        let leader : Parcel.t = row.(if fu < half then 0 else half) in
        if
          not
            (Control.equal p.control leader.control
            && Sync.equal p.sync leader.sync)
        then ok := false)
      row
  done;
  !ok

let validate model program (config : Config.t) =
  (match Program.validate program config with
   | Ok () -> ()
   | Error errors ->
     invalid_arg
       ("Interp.run: invalid program:\n" ^ String.concat "\n" errors));
  match model with
  | Per_fu -> ()
  | Global ->
    if not (Program.control_consistent program) then
      invalid_arg "Interp.run: program is not control-consistent"
  | Banked ->
    let n = Program.n_fus program in
    if n < 2 || n mod 2 <> 0 then
      invalid_arg "Interp.run: the two-sequencer model needs an even FU count";
    if not (bank_consistent program) then
      invalid_arg "Interp.run: program is not bank-consistent"

let create config program =
  let n = (config : Config.t).n_fus in
  { config;
    program;
    n;
    registers = Array.make Reg.count Value.zero;
    memory = [];
    port_writes = Array.make config.n_ports [];
    pcs = Array.make n 0;
    ccs = Array.make n None;
    sss = Array.make n Sync.Busy;
    halted = Array.make n false;
    cycle = 0;
    pending = [];
    hazards = [];
    trace = [];
    ssets = [ List.init n (fun fu -> fu) ];
    data_ops = 0;
    nops = 0;
    halted_slots = 0;
    spin_slots = 0;
    cond_branches = 0;
    max_streams = 0 }

(* Drain the datapath pipeline after the last FU halts: remaining
   results commit in issue order over the following "cycles". *)
let drain m =
  while m.pending <> [] do
    m.cycle <- m.cycle + 1;
    commit_cycle m ~staged:[] ~compares:[]
  done

let observation m outcome =
  { Observation.outcome;
    registers = Array.copy m.registers;
    memory =
      List.sort (fun (a, _) (b, _) -> compare a b)
        (List.filter (fun (_, v) -> not (Value.equal v Value.zero)) m.memory);
    io_out =
      List.filter_map
        (fun port ->
          match m.port_writes.(port) with
          | [] -> None
          | writes -> Some (port, writes))
        (List.init m.config.n_ports (fun p -> p));
    hazards =
      List.map (fun (cycle, h) -> (cycle, Hazard.to_string h)) m.hazards;
    trace = m.trace;
    counts =
      { Observation.cycles = m.cycle;
        data_ops = m.data_ops;
        nops = m.nops;
        halted_slots = m.halted_slots;
        spin_slots = m.spin_slots;
        cond_branches = m.cond_branches;
        max_streams = m.max_streams } }

let run ?(model = Per_fu) ?(config = Config.default) ?setup program =
  validate model program config;
  let m = create config program in
  (match setup with None -> () | Some f -> f m);
  let rec loop () =
    if all_halted m then begin
      drain m;
      Run.Halted { cycles = m.cycle }
    end
    else if m.cycle >= m.config.max_cycles then
      Run.Fuel_exhausted { cycles = m.cycle }
    else begin
      step model m;
      loop ()
    end
  in
  let outcome = loop () in
  observation m outcome

let set_reg m i v = m.registers.(i) <- v
let set_mem m addr v = write_mem m addr v
