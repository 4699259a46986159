open Ximd_isa

type scratch = {
  slots : int array;
  was_live : bool array;
  lead : int array;
  leaders : int array;
  members : int array;
  rows : int array;
  ctrl : int array;
  taken : bool array;
  next_pc : int array;
  spun : bool array;
  old_pcs : int array;
  labels : int array;
  ss_before : Sync.t array;
  cc_fu : int array;
  cc_val : bool array;
  mutable cc_len : int;
  mutable commit_results : int;
  mutable commit_ccs : int;
}

type inflight = {
  mutable ifl_len : int;
  mutable ifl_due : int array;
  mutable ifl_is_mem : bool array;
  mutable ifl_fu : int array;
  mutable ifl_loc : int array;
  mutable ifl_value : Value.t array;
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
  inflight : inflight;
  faults : Ximd_machine.Fault.t option;
      (* [None] in the common case: the simulators and [Exec] test this
         field with a single branch and touch nothing else *)
  obs : Ximd_obs.Sink.t option;
      (* observability sink: [Engine.step] tests it three times a cycle *)
}

(* Program.validate walks every parcel of the program.  Benchmarks and
   workload sweeps create thousands of states for the same immutable
   program/config pair, so remember recently validated pairs (compared
   by physical equality — both values are immutable). *)
let validated : (Program.t * Config.t) option array = Array.make 8 None
let validated_next = ref 0

let ensure_valid program config =
  let cached =
    Array.exists
      (function
        | Some (p, c) -> p == program && c == config
        | None -> false)
      validated
  in
  if not cached then begin
    (match Program.validate program config with
     | Ok () -> ()
     | Error errors ->
       invalid_arg
         ("State.create: invalid program:\n" ^ String.concat "\n" errors));
    validated.(!validated_next) <- Some (program, config);
    validated_next := (!validated_next + 1) mod Array.length validated
  end

let create ?(config = Config.default) ?faults ?obs program =
  ensure_valid program config;
  let n = config.n_fus in
  (match obs with
   | Some sink when Ximd_obs.Sink.n_fus sink <> config.n_fus ->
     invalid_arg "State.create: obs sink built for a different FU count"
   | Some _ | None -> ());
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
    sss = Array.make n Sync.Busy;
    halted = Array.make n false;
    partition = Partition.initial ~n;
    scratch =
      { slots = Array.make n 0;
        was_live = Array.make n false;
        lead = Array.make n (-1);
        leaders = Array.make n 0;
        members = Array.make n 0;
        rows = Array.make n 0;
        ctrl = Array.make n 0;
        taken = Array.make n false;
        next_pc = Array.make n 0;
        spun = Array.make n false;
        old_pcs = Array.make n 0;
        labels = Array.make n 0;
        ss_before = Array.make n Sync.Busy;
        cc_fu = Array.make n 0;
        cc_val = Array.make n false;
        cc_len = 0;
        commit_results = 0;
        commit_ccs = 0 };
    inflight =
      (let cap = max 16 (n * config.result_latency) in
       { ifl_len = 0;
         ifl_due = Array.make cap 0;
         ifl_is_mem = Array.make cap false;
         ifl_fu = Array.make cap 0;
         ifl_loc = Array.make cap 0;
         ifl_value = Array.make cap Value.zero }) }

(* Rewind to the [create] state without reallocating any arena: the
   register file, memory pages, scratch buffers and in-flight queue are
   all reused in place.  The configuration is fixed for the lifetime of
   the state — every arena is sized from it — so only the program may be
   swapped. *)
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
  Array.fill t.scratch.spun 0 n false;
  t.inflight.ifl_len <- 0;
  (match t.faults with
   | None -> ()
   | Some f -> Ximd_machine.Fault.reset f);
  match t.obs with
  | None -> ()
  | Some sink -> Ximd_obs.Sink.reset sink

let n_fus t = t.config.n_fus
let all_halted t = Array.for_all Fun.id t.halted

let in_flight_count t = t.inflight.ifl_len

let reg t i = Ximd_machine.Regfile.read t.regs (Reg.make i)
let set_reg t i v = Ximd_machine.Regfile.set t.regs (Reg.make i) v
let mem_get t addr = Ximd_machine.Memory.get t.mem addr
let mem_set t addr v = Ximd_machine.Memory.set t.mem addr v

let apply_inits t ~regs ~mem =
  List.iter (fun (r, v) -> Ximd_machine.Regfile.set t.regs r v) regs;
  List.iter (fun (a, v) -> mem_set t a v) mem

let hazards t = Ximd_machine.Hazard.events t.log
