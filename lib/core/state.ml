open Ximd_isa

type scratch = {
  slots : int array;
  leaders : int array;
  members : int array;
  rows : int array;
  ctrl : int array;
  taken : bool array;
  labels : int array;
  mutable cc_len : int;
  record : Ximd_obs.Cycle.t;
}

type queue = {
  mutable q_len : int;
  q_due : int array;
  q_mem : bool array;
  q_fu : int array;
  q_loc : int array;
  q_value : Value.t array;
  reg_writes : int array;
}

type t = {
  config : Config.t;
  mutable program : Program.t;
      (* mutable only for [reset ~program]: swapping in the next program
         of a sweep without rebuilding the arenas *)
  regs : Ximd_machine.Regfile.t;
  mem : Ximd_machine.Memory.t;
  io : Ximd_machine.Ioport.t;
  log : Ximd_machine.Hazard.log;
  stats : Stats.t;
  mutable cycle : int;
  pcs : int array;
  ccs : bool option array;
  sss : Sync.t array;
  halted : bool array;
  mutable partition : Partition.t;
  scratch : scratch;
  queue : queue;
  faults : Ximd_machine.Fault.t option;
      (* [None] in the common case: the simulators and [Exec] test this
         field with a single branch and touch nothing else *)
  obs : Ximd_obs.Sink.t option;
      (* observability sink: [Engine.step] tests it three times a cycle *)
}

(* [Program.validate] allocates nothing for a valid program, so every
   program is checked each time a state takes it. *)
let ensure_valid program config =
  match Program.validate program config with
  | Ok () -> ()
  | Error errors ->
    invalid_arg
      ("State.create: invalid program:\n" ^ String.concat "\n" errors)

let create ?(config = Config.default) ?faults ?obs program =
  ensure_valid program config;
  let n = config.n_fus in
  (match obs with
   | Some sink when Ximd_obs.Sink.n_fus sink <> config.n_fus ->
     invalid_arg "State.create: obs sink built for a different FU count"
   | Some _ | None -> ());
  let sss = Array.make n Sync.Busy in
  { config;
    faults;
    obs;
    program;
    regs = Ximd_machine.Regfile.create ();
    mem =
      Ximd_machine.Memory.create ~organisation:config.mem_organisation
        ~words:config.mem_words ();
    io = Ximd_machine.Ioport.create ~n_ports:config.n_ports ();
    log = Ximd_machine.Hazard.create_log config.hazard_policy;
    stats = Stats.create ();
    cycle = 0;
    pcs = Array.make n 0;
    ccs = Array.make n None;
    sss;
    halted = Array.make n false;
    partition = Partition.initial ~n;
    scratch =
      { slots = Array.make n 0;
        leaders = Array.make n 0;
        members = Array.make n 0;
        rows = Array.make n 0;
        ctrl = Array.make n 0;
        taken = Array.make n false;
        labels = Array.make n 0;
        cc_len = 0;
        record =
          Ximd_obs.Cycle.create ~ss:sss ~latency:config.result_latency
            ~observed:(Option.is_some obs) };
    queue =
      (* An FU issues at most one result a cycle, two when a fault
         duplicates it, and a result stays queued for [result_latency]
         cycles at most, so the queue never grows. *)
      (let cap = 2 * n * config.result_latency in
       { q_len = 0;
         q_due = Array.make cap 0;
         q_mem = Array.make cap false;
         q_fu = Array.make cap 0;
         q_loc = Array.make cap 0;
         q_value = Array.make cap Value.zero;
         reg_writes = Array.make Reg.count 0 }) }

(* Rewind to the [create] state without reallocating any arena: the
   register file, memory pages, scratch buffers and write-back queue
   are all reused in place.  The configuration is fixed for the
   lifetime of the state — every arena is sized from it — so only the
   program may be swapped. *)
let reset ?program t =
  let program =
    match program with
    | None -> t.program
    | Some p ->
      ensure_valid p t.config;
      p
  in
  t.program <- program;
  let n = t.config.n_fus in
  Ximd_machine.Regfile.reset t.regs;
  Ximd_machine.Memory.reset t.mem;
  Ximd_machine.Ioport.reset t.io;
  Ximd_machine.Hazard.clear t.log;
  Stats.reset t.stats;
  t.cycle <- 0;
  Array.fill t.pcs 0 n 0;
  Array.fill t.ccs 0 n None;
  Array.fill t.sss 0 n Sync.Busy;
  Array.fill t.halted 0 n false;
  t.partition <- Partition.initial ~n;
  Array.fill t.scratch.labels 0 n 0;
  t.scratch.cc_len <- 0;
  t.queue.q_len <- 0;
  (match t.faults with
   | None -> ()
   | Some f -> Ximd_machine.Fault.reset f);
  match t.obs with
  | None -> ()
  | Some sink -> Ximd_obs.Sink.reset sink

let n_fus t = t.config.n_fus
let all_halted t = Array.for_all Fun.id t.halted

let in_flight_count t = t.queue.q_len

let reg t i = Ximd_machine.Regfile.read t.regs (Reg.make i)
let set_reg t i v = Ximd_machine.Regfile.set t.regs (Reg.make i) v
let mem_get t addr = Ximd_machine.Memory.get t.mem addr
let mem_set t addr v = Ximd_machine.Memory.set t.mem addr v

let apply_inits t ~regs ~mem =
  List.iter (fun (r, v) -> Ximd_machine.Regfile.set t.regs r v) regs;
  List.iter (fun (a, v) -> mem_set t a v) mem

let hazards t = Ximd_machine.Hazard.events t.log
