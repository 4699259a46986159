open Ximd_isa
module M = Ximd_machine

(* Shared [Some] cells so committing a condition code does not allocate
   a fresh option every cycle. *)
let some_true = Some true
let some_false = Some false

(* The condition code [cond] reads that no compare has set yet, or -1. *)
let unset_cc (state : State.t) (cond : Cond.t) =
  match cond with
  | Cond.Cc j -> (
    match state.ccs.(j) with
    | None -> j
    | Some _ -> -1)
  | Cond.Always1 | Cond.Always2 | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
    -1

let undefined_cc (state : State.t) ~fu j =
  M.Hazard.report state.log ~cycle:state.cycle
    (M.Hazard.Undefined_cc { cc = j; fu })

(* Whether every (some) FU [i >= from] named in [mask] signals done.
   Top-level, taking the sync array and the mask as arguments, so a
   barrier test captures nothing and builds no closure. *)
let rec all_done sss mask i =
  1 lsl i > mask
  || (mask land (1 lsl i) = 0 || Sync.equal sss.(i) Sync.Done)
     && all_done sss mask (i + 1)

let rec any_done sss mask i =
  1 lsl i <= mask
  && ((mask land (1 lsl i) <> 0 && Sync.equal sss.(i) Sync.Done)
      || any_done sss mask (i + 1))

(* Specialised over {!Ximd_isa.Cond.eval} so the per-cycle path builds
   no closures and no mask lists. *)
let holds (state : State.t) cond =
  match (cond : Cond.t) with
  | Cond.Always1 -> true
  | Cond.Always2 -> false
  | Cond.Cc j -> (
    match state.ccs.(j) with
    | Some b -> b
    | None -> false)
  | Cond.Ss j -> Sync.equal state.sss.(j) Sync.Done
  | Cond.All_ss mask -> all_done state.sss mask 0
  | Cond.Any_ss mask -> any_done state.sss mask 0

let eval_cond (state : State.t) ~fu cond =
  let j = unset_cc state cond in
  if j >= 0 then undefined_cc state ~fu j;
  holds state cond

let operand_value (state : State.t) = function
  | Operand.Reg r -> M.Regfile.read state.regs r
  | Operand.Imm v -> v

(* Register/memory results commit at the end of cycle
   [issue + result_latency - 1]; latency 1 (the research model) stages
   directly into this cycle's commit. *)
let defer (state : State.t) ~is_mem ~fu ~loc value =
  let ifl = state.inflight in
  let cap = Array.length ifl.ifl_due in
  if ifl.ifl_len = cap then begin
    let cap' = 2 * cap in
    let due = Array.make cap' 0
    and is_mem' = Array.make cap' false
    and fu' = Array.make cap' 0
    and loc' = Array.make cap' 0
    and value' = Array.make cap' Value.zero in
    Array.blit ifl.ifl_due 0 due 0 cap;
    Array.blit ifl.ifl_is_mem 0 is_mem' 0 cap;
    Array.blit ifl.ifl_fu 0 fu' 0 cap;
    Array.blit ifl.ifl_loc 0 loc' 0 cap;
    Array.blit ifl.ifl_value 0 value' 0 cap;
    ifl.ifl_due <- due;
    ifl.ifl_is_mem <- is_mem';
    ifl.ifl_fu <- fu';
    ifl.ifl_loc <- loc';
    ifl.ifl_value <- value'
  end;
  let k = ifl.ifl_len in
  ifl.ifl_due.(k) <- state.cycle + state.config.result_latency - 1;
  ifl.ifl_is_mem.(k) <- is_mem;
  ifl.ifl_fu.(k) <- fu;
  ifl.ifl_loc.(k) <- loc;
  ifl.ifl_value.(k) <- value;
  ifl.ifl_len <- k + 1

let do_stage_reg_write (state : State.t) ~fu reg value =
  if state.config.result_latency = 1 then
    M.Regfile.stage_write state.regs ~fu reg value
  else defer state ~is_mem:false ~fu ~loc:(Reg.index reg) value

let do_stage_mem_write (state : State.t) ~fu addr value =
  if state.config.result_latency = 1 then
    M.Memory.stage_write state.mem ~fu ~cycle:state.cycle ~log:state.log addr
      value
  else defer state ~is_mem:true ~fu ~loc:addr value

(* Fault injection hooks on the FU write ports: a dropped transfer never
   stages; a duplicated one stages twice (surfacing as a multiple-write
   hazard).  The common, fault-free path pays one branch on the
   immutable [state.faults] field and nothing else. *)

let stage_reg_write (state : State.t) ~fu reg value =
  match state.faults with
  | None -> do_stage_reg_write state ~fu reg value
  | Some f ->
    if not (M.Fault.drops f ~fu) then begin
      do_stage_reg_write state ~fu reg value;
      if M.Fault.dups f ~fu then do_stage_reg_write state ~fu reg value
    end

let stage_mem_write (state : State.t) ~fu addr value =
  match state.faults with
  | None -> do_stage_mem_write state ~fu addr value
  | Some f ->
    if not (M.Fault.drops f ~fu) then begin
      do_stage_mem_write state ~fu addr value;
      if M.Fault.dups f ~fu then do_stage_mem_write state ~fu addr value
    end

let push_cc (state : State.t) ~fu value =
  let s = state.scratch in
  s.cc_fu.(s.cc_len) <- fu;
  s.cc_val.(s.cc_len) <- value;
  s.cc_len <- s.cc_len + 1

let exec_data (state : State.t) ~fu (data : Parcel.data) =
  let stats = state.stats in
  if not (Parcel.is_nop data) then stats.data_ops <- stats.data_ops + 1;
  match data with
  | Parcel.Dnop -> stats.nops <- stats.nops + 1
  | Parcel.Dbin { op; a; b; d } ->
    if Opcode.binop_is_float op then stats.float_ops <- stats.float_ops + 1
    else stats.int_ops <- stats.int_ops + 1;
    let result =
      match
        M.Alu.eval_bin_exn op (operand_value state a) (operand_value state b)
      with
      | v -> v
      | exception M.Alu.Fault M.Alu.Division_by_zero ->
        M.Hazard.report state.log ~cycle:state.cycle
          (M.Hazard.Div_by_zero { fu });
        Value.zero
    in
    stage_reg_write state ~fu d result
  | Parcel.Dun { op; a; d } ->
    if Opcode.unop_is_float op then stats.float_ops <- stats.float_ops + 1
    else stats.int_ops <- stats.int_ops + 1;
    stage_reg_write state ~fu d (M.Alu.eval_un op (operand_value state a))
  | Parcel.Dcmp { op; a; b } ->
    stats.cmp_ops <- stats.cmp_ops + 1;
    if Opcode.cmpop_is_float op then stats.float_ops <- stats.float_ops + 1
    else stats.int_ops <- stats.int_ops + 1;
    push_cc state ~fu
      (M.Alu.eval_cmp op (operand_value state a) (operand_value state b))
  | Parcel.Dload { a; b; d } ->
    stats.mem_ops <- stats.mem_ops + 1;
    let addr =
      (Value.of_int
         ((operand_value state a :> int) + (operand_value state b :> int))
        :> int)
    in
    stage_reg_write state ~fu d
      (M.Memory.read state.mem ~fu ~cycle:state.cycle ~log:state.log addr)
  | Parcel.Dstore { a; b } ->
    stats.mem_ops <- stats.mem_ops + 1;
    let addr = (operand_value state b :> int) in
    stage_mem_write state ~fu addr (operand_value state a)
  | Parcel.Din { port; d } ->
    stats.io_ops <- stats.io_ops + 1;
    let port = (operand_value state port :> int) in
    stage_reg_write state ~fu d
      (M.Ioport.read state.io ~fu ~cycle:state.cycle ~log:state.log port)
  | Parcel.Dout { a; port } ->
    stats.io_ops <- stats.io_ops + 1;
    let port = (operand_value state port :> int) in
    M.Ioport.write state.io ~fu ~cycle:state.cycle ~log:state.log port
      (operand_value state a)

(* Move pipeline results whose write-back stage is this cycle into the
   commit stage.  Entries are in issue order, so committing front to
   back preserves issue order; survivors are compacted in place. *)
let flush_due (state : State.t) =
  let ifl = state.inflight in
  if ifl.ifl_len > 0 then begin
    let len = ifl.ifl_len in
    let kept = ref 0 in
    for k = 0 to len - 1 do
      if ifl.ifl_due.(k) <= state.cycle then begin
        let fu = ifl.ifl_fu.(k)
        and loc = ifl.ifl_loc.(k)
        and value = ifl.ifl_value.(k) in
        if ifl.ifl_is_mem.(k) then
          M.Memory.stage_write state.mem ~fu ~cycle:state.cycle
            ~log:state.log loc value
        else M.Regfile.stage_write state.regs ~fu (Reg.make loc) value
      end
      else begin
        let j = !kept in
        ifl.ifl_due.(j) <- ifl.ifl_due.(k);
        ifl.ifl_is_mem.(j) <- ifl.ifl_is_mem.(k);
        ifl.ifl_fu.(j) <- ifl.ifl_fu.(k);
        ifl.ifl_loc.(j) <- ifl.ifl_loc.(k);
        ifl.ifl_value.(j) <- ifl.ifl_value.(k);
        incr kept
      end
    done;
    ifl.ifl_len <- !kept
  end

let commit_cycle (state : State.t) =
  let s = state.scratch in
  match
    flush_due state;
    (* Progress meter for the deadlock watchdog: anything that reaches
       the commit stage counts.  Read after [flush_due] so deferred
       pipeline results landing this cycle are included. *)
    let committed =
      M.Regfile.staged_count state.regs
      + M.Memory.staged_count state.mem
      + s.cc_len
    in
    state.stats.commit_ops <- state.stats.commit_ops + committed;
    M.Regfile.commit state.regs ~cycle:state.cycle ~log:state.log;
    M.Memory.commit state.mem ~cycle:state.cycle ~log:state.log;
    committed
  with
  | committed ->
    s.commit_results <- committed;
    s.commit_ccs <- s.cc_len;
    for k = 0 to s.cc_len - 1 do
      state.ccs.(s.cc_fu.(k)) <-
        (if s.cc_val.(k) then some_true else some_false)
    done;
    s.cc_len <- 0
  | exception e ->
    (* a Raise-policy hazard aborts the cycle: staged condition codes
       must not leak into the next one *)
    s.cc_len <- 0;
    raise e

(* Control-plane fault application: called by the simulators at the top
   of each cycle (only when [state.faults] is [Some _]), so an injected
   SS/CC flip is visible to this cycle's branch evaluation and a stuck
   halt takes effect before fetch.  A stuck halt deliberately does NOT
   raise the victim's SS bit to DONE the way a normal halt does — a dead
   FU stops driving its signal, which is what wedges SS handshakes. *)
let apply_faults (state : State.t) faults =
  let n = State.n_fus state in
  let before =
    match state.obs with None -> 0 | Some _ -> M.Fault.remaining faults
  in
  M.Fault.begin_cycle faults ~cycle:state.cycle ~apply:(fun kind target ->
    if target < n then
      match kind with
      | M.Fault.Flip_ss ->
        state.sss.(target) <-
          (match state.sss.(target) with
           | Sync.Busy -> Sync.Done
           | Sync.Done -> Sync.Busy)
      | M.Fault.Flip_cc ->
        state.ccs.(target) <-
          (match state.ccs.(target) with
           | None | Some false -> some_true
           | Some true -> some_false)
      | M.Fault.Stuck_halt -> state.halted.(target) <- true
      | M.Fault.Drop_write | M.Fault.Dup_write ->
        (* begin_cycle arms masks for these instead of calling apply *)
        assert false);
  match state.obs with
  | None -> ()
  | Some obs ->
    (* Diff the schedule rather than hooking [apply]: drop/dup events arm
       masks without an apply call, and this way every kind is reported. *)
    let rec emit k events =
      if k > 0 then
        match events with
        | [] -> ()
        | (e : M.Fault.event) :: rest ->
          Ximd_obs.Sink.on_fault obs ~cycle:state.cycle
            ~kind:(M.Fault.kind_name e.kind) ~target:e.target;
          emit (k - 1) rest
    in
    emit (before - M.Fault.remaining faults) (M.Fault.fired_rev faults)

(* Drain the datapath pipeline after the last FU halts: remaining
   results commit in issue order over the following "cycles".  Every
   drained cycle is a halted slot on every FU, so the per-slot cycle
   accounting stays conserved against [stats.cycles].  Nothing issues
   while draining, so no condition code commits. *)
let drain_pipeline (state : State.t) =
  while state.inflight.ifl_len > 0 do
    state.cycle <- state.cycle + 1;
    commit_cycle state;
    match state.obs with
    | None -> ()
    | Some obs -> (
      let results = state.scratch.commit_results in
      if results > 0 then
        Ximd_obs.Sink.on_commit obs ~cycle:state.cycle ~results;
      match Ximd_obs.Sink.account obs with
      | None -> ()
      | Some a ->
        for fu = 0 to State.n_fus state - 1 do
          Ximd_obs.Account.tally a ~fu Halted
        done)
  done
