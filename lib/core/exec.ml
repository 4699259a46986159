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

(* Every register and memory result joins the write-back queue, due at
   the end of cycle [issue + result_latency - 1].  Under unit latency a
   store gets its bank check here, at issue; a pipelined one gets it at
   write-back ({!commit_cycle}). *)
let push (state : State.t) ~is_mem ~fu ~loc value =
  if
    is_mem
    && state.config.result_latency = 1
    && not (M.Memory.accessible state.mem ~fu loc)
  then
    M.Hazard.report state.log ~cycle:state.cycle
      (M.Hazard.Mem_out_of_bounds { addr = loc; fu })
  else begin
    let q = state.queue in
    let k = q.q_len in
    q.q_due.(k) <- state.cycle + state.config.result_latency - 1;
    q.q_mem.(k) <- is_mem;
    q.q_fu.(k) <- fu;
    q.q_loc.(k) <- loc;
    q.q_value.(k) <- value;
    q.q_len <- k + 1
  end

(* Fault injection hooks on the FU write ports: a dropped transfer never
   queues; a duplicated one queues twice (surfacing as a multiple-write
   hazard).  The common, fault-free path pays one branch on the
   immutable [state.faults] field and nothing else. *)
let write (state : State.t) ~is_mem ~fu ~loc value =
  match state.faults with
  | None -> push state ~is_mem ~fu ~loc value
  | Some f ->
    if not (M.Fault.drops f ~fu) then begin
      push state ~is_mem ~fu ~loc value;
      if M.Fault.dups f ~fu then push state ~is_mem ~fu ~loc value
    end

let write_reg state ~fu (reg : Reg.t) value =
  write state ~is_mem:false ~fu ~loc:(reg :> int) value

let push_cc (state : State.t) ~fu value =
  let s = state.scratch in
  s.record.cc_fu.(s.cc_len) <- fu;
  s.record.cc_val.(s.cc_len) <- value;
  s.cc_len <- s.cc_len + 1

(* Operand [k] of an image: the register straight from the register
   file's value array, or the immediate. *)
let[@inline] operand (values : Value.t array) (regs : int array)
    (imms : Value.t array) k =
  let r = regs.(k) in
  if r >= 0 then values.(r) else imms.(k)

let[@inline] count_alu (stats : Stats.t) is_float =
  if is_float then stats.float_ops <- stats.float_ops + 1
  else stats.int_ops <- stats.int_ops + 1

(* One data operation, from slot [k] of [img].  The whole operation
   stays in this function, since under the build's [-opaque] every call
   into another module is an indirect call that nothing inlines. *)
let exec_slot (state : State.t) (img : Program.image) values ~fu k =
  let stats = state.stats in
  let a = operand values img.a_reg img.a_imm k
  and b = operand values img.b_reg img.b_imm k in
  let op = img.op.(k) in
  (match op with
   | Program.Nop -> stats.nops <- stats.nops + 1
   | Bin _ | Un _ | Cmp _ | Load | Store | In | Out ->
     stats.data_ops <- stats.data_ops + 1);
  match op with
  | Nop -> ()
  | Bin op ->
    count_alu stats img.is_float.(k);
    let result =
      match M.Alu.eval_bin_exn op a b with
      | v -> v
      | exception M.Alu.Fault M.Alu.Division_by_zero ->
        M.Hazard.report state.log ~cycle:state.cycle
          (M.Hazard.Div_by_zero { fu });
        Value.zero
    in
    write_reg state ~fu img.dest.(k) result
  | Un op ->
    count_alu stats img.is_float.(k);
    write_reg state ~fu img.dest.(k) (M.Alu.eval_un op a)
  | Cmp op ->
    stats.cmp_ops <- stats.cmp_ops + 1;
    count_alu stats img.is_float.(k);
    push_cc state ~fu (M.Alu.eval_cmp op a b)
  | Load ->
    stats.mem_ops <- stats.mem_ops + 1;
    let addr = (Value.of_int ((a :> int) + (b :> int)) :> int) in
    write_reg state ~fu img.dest.(k)
      (M.Memory.read state.mem ~fu ~cycle:state.cycle ~log:state.log addr)
  | Store ->
    stats.mem_ops <- stats.mem_ops + 1;
    write state ~is_mem:true ~fu ~loc:(b :> int) a
  | In ->
    stats.io_ops <- stats.io_ops + 1;
    write_reg state ~fu img.dest.(k)
      (M.Ioport.read state.io ~fu ~cycle:state.cycle ~log:state.log
         (a :> int))
  | Out ->
    stats.io_ops <- stats.io_ops + 1;
    M.Ioport.write state.io ~fu ~cycle:state.cycle ~log:state.log (b :> int) a

let exec_cycle (state : State.t) img =
  let s = state.scratch and stats = state.stats in
  let values = M.Regfile.values state.regs in
  let queued = state.queue.q_len and was_live = s.record.was_live in
  try
    for fu = 0 to Array.length s.slots - 1 do
      if was_live.(fu) then exec_slot state img values ~fu s.slots.(fu)
      else stats.halted_slots <- stats.halted_slots + 1
    done
  with e ->
    (* a Raise-policy hazard aborts the cycle at issue: what earlier FUs
       queued or staged in it may not land at a later commit *)
    state.queue.q_len <- queued;
    s.cc_len <- 0;
    raise e

(* A one-parcel program's image: slot 0 is [data]. *)
let exec_data (state : State.t) ~fu data =
  let img =
    Program.image
      (Program.make ~n_fus:1 [| [| Parcel.make data Control.halt |] |])
  in
  exec_slot state img (M.Regfile.values state.regs) ~fu 0

(* The multiple-write rule: the value that lands at the location queue
   entry [k] writes, from the due entries [k, d) that write it, is the
   highest-numbered FU's, the latest write on ties.  Several writes are
   a hazard, reported (every writer, in issue order) before the value
   lands; a lone write allocates nothing.  Each entry taken is marked
   done (FU -1). *)
let resolve (state : State.t) ~is_mem ~loc k d =
  let q = state.queue in
  let first = q.q_fu.(k) in
  let others = ref [] and winner = ref (-1) and value = ref Value.zero in
  for j = k to d - 1 do
    let fu = q.q_fu.(j) in
    if fu >= 0 && q.q_mem.(j) = is_mem && q.q_loc.(j) = loc then begin
      q.q_fu.(j) <- -1;
      if j > k then others := fu :: !others;
      if fu >= !winner then begin
        winner := fu;
        value := q.q_value.(j)
      end
    end
  done;
  if !others <> [] then begin
    let fus = first :: List.rev !others in
    M.Hazard.report state.log ~cycle:state.cycle
      (if is_mem then M.Hazard.Multiple_mem_write { addr = loc; fus }
       else M.Hazard.Multiple_reg_write { reg = Reg.make loc; fus })
  end;
  !value

(* Land the queue's first [d] entries, the results due this cycle, as
   the reference model does: stores get their bank check, then registers
   land in order of first write, then stores in order of first store.
   Returns how many results and condition codes commit. *)
let land_due (state : State.t) d =
  let q = state.queue in
  let writes = q.reg_writes in
  let committed = ref state.scratch.cc_len in
  for k = 0 to d - 1 do
    let loc = q.q_loc.(k) in
    if not q.q_mem.(k) then begin
      writes.(loc) <- writes.(loc) + 1;
      incr committed
    end
    else if M.Memory.accessible state.mem ~fu:q.q_fu.(k) loc then
      incr committed
    else begin
      let fu = q.q_fu.(k) in
      q.q_fu.(k) <- -1;
      M.Hazard.report state.log ~cycle:state.cycle
        (M.Hazard.Mem_out_of_bounds { addr = loc; fu })
    end
  done;
  (* Progress meter for the deadlock watchdog: anything that commits
     counts. *)
  state.stats.commit_ops <- state.stats.commit_ops + !committed;
  (* A per-register count keeps registers linear: only a register
     written more than once is looked for again. *)
  let values = M.Regfile.values state.regs in
  for k = 0 to d - 1 do
    if q.q_fu.(k) >= 0 && not q.q_mem.(k) then begin
      let r = q.q_loc.(k) in
      values.(r) <-
        (if writes.(r) = 1 then q.q_value.(k)
         else resolve state ~is_mem:false ~loc:r k d);
      writes.(r) <- 0
    end
  done;
  for k = 0 to d - 1 do
    if q.q_fu.(k) >= 0 && q.q_mem.(k) then
      let addr = q.q_loc.(k) in
      M.Memory.set state.mem addr (resolve state ~is_mem:true ~loc:addr k d)
  done;
  !committed

(* Drop the first [d] entries, keeping the rest in issue order. *)
let retire (q : State.queue) d =
  let rest = q.q_len - d in
  if rest > 0 then begin
    Array.blit q.q_due d q.q_due 0 rest;
    Array.blit q.q_mem d q.q_mem 0 rest;
    Array.blit q.q_fu d q.q_fu 0 rest;
    Array.blit q.q_loc d q.q_loc 0 rest;
    Array.blit q.q_value d q.q_value 0 rest
  end;
  q.q_len <- rest

let commit_cycle (state : State.t) =
  let q = state.queue and s = state.scratch in
  let d = ref 0 in
  while !d < q.q_len && q.q_due.(!d) <= state.cycle do
    incr d
  done;
  let d = !d in
  match land_due state d with
  | committed ->
    retire q d;
    let c = s.record in
    c.commit_results <- committed;
    c.commit_ccs <- s.cc_len;
    for k = 0 to s.cc_len - 1 do
      state.ccs.(c.cc_fu.(k)) <-
        (if c.cc_val.(k) then some_true else some_false)
    done;
    s.cc_len <- 0
  | exception e ->
    (* a Raise-policy hazard aborts the cycle: none of its due results
       or condition codes may leak into the next one *)
    for k = 0 to d - 1 do
      if not q.q_mem.(k) then q.reg_writes.(q.q_loc.(k)) <- 0
    done;
    retire q d;
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
  while state.queue.q_len > 0 do
    state.cycle <- state.cycle + 1;
    commit_cycle state;
    match state.obs with
    | None -> ()
    | Some obs ->
      Ximd_obs.Sink.on_drain obs ~cycle:state.cycle
        ~results:state.scratch.record.commit_results
  done
