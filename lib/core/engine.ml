open Ximd_isa
module M = Ximd_machine

(* One cycle pipeline for all three machine models.  The
   paper's subsumption argument (§2, Figure 3) — a VLIW is the
   degenerate XIMD with one global sequencer, the TRACE/500 the
   two-sequencer point in between — is encoded structurally: the only
   thing a {!model} changes is how FUs group into sequencer-led streams
   and what the sequencer drives (SS discipline, partition rule).  The
   loop that runs a program to completion is {!Session.run}.

   All reads observe start-of-cycle state; all writes commit at the end
   (paper §2.2, verified against the Figure 10 trace — see DESIGN.md
   §5).  The loop keeps its per-cycle buffers, the partition's label
   vector included, in the preallocated [state.scratch], and machine
   values are immediate ints, so the data path and an unchanged
   partition allocate nothing.  A cycle still allocates: the
   [stream_bounds] tuples, the [Control.resolve] option, the closure in
   [State.all_halted], and a new partition when the grouping changes;
   [ledger.exe trace] counts the words per cycle as
   [engine.M.step_words]. *)

type model = Per_fu | Global | Banked

(* The one spelling of the models' names (and its inverse, which
   returns constants, so parsing a job allocates nothing). *)
let model_name = function
  | Per_fu -> "xsim"
  | Global -> "vsim"
  | Banked -> "t500"

let model_of_name = function
  | "xsim" -> Some Per_fu
  | "vsim" -> Some Global
  | "t500" -> Some Banked
  | _ -> None

let n_streams model ~n =
  match model with Per_fu -> n | Global -> 1 | Banked -> 2

(* Streams are contiguous FU ranges [leader..last]; the leader's parcel
   carries the stream's control fields. *)
let[@inline] stream_bounds model ~n k =
  match model with
  | Per_fu -> (k, k)
  | Global -> (0, n - 1)
  | Banked -> if k = 0 then (0, (n / 2) - 1) else (n / 2, n - 1)

(* The FU a stream's hazards (fell-off-end, undefined CC) are attributed
   to: its sequencer.  The global sequencer is not an FU of its own, so
   blame the lowest FU still issuing — with no faults injected that is
   FU 0, the leader. *)
let[@inline] seq_fu model (state : State.t) ~leader ~last =
  match model with
  | Per_fu | Banked -> leader
  | Global ->
    let rec first fu =
      if fu >= last || not state.halted.(fu) then fu else first (fu + 1)
    in
    first leader

let bank_consistent program =
  let n = Program.n_fus program in
  let half = n / 2 in
  let consistent_with leader row fu =
    let (l : Parcel.t) = row.(leader) and (p : Parcel.t) = row.(fu) in
    Control.equal p.control l.control && Sync.equal p.sync l.sync
  in
  let ok = ref true in
  for addr = 0 to Program.length program - 1 do
    let row = Program.row program addr in
    for fu = 0 to n - 1 do
      let leader = if fu < half then 0 else half in
      if not (consistent_with leader row fu) then ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* The top of the cycle: the sink samples the partition in effect, the
   same timing as the tracer row {!Session.run} records just before
   the step, and then faults land, so a flipped SS/CC bit is visible to
   this cycle's branch evaluation and a stuck halt takes effect before
   fetch.  Each costs one predictable branch when off. *)

let[@inline] hook_cycle_top (state : State.t) =
  (match state.obs with
   | None -> ()
   | Some obs ->
     Ximd_obs.Sink.on_partition obs ~cycle:state.cycle
       ~ssets:(Partition.ssets state.partition));
  match state.faults with
  | None -> ()
  | Some f -> Exec.apply_faults state f

(* ------------------------------------------------------------------ *)
(* The observation point (DESIGN.md §7, §9).  The phases of {!step} do
   machine work only; once the cycle is finished, [report] reads it
   back from the state and [state.scratch] and hands the sink its facts
   in the order the event ring records them (the exporters' goldens pin
   it): fetches, the commit's results and condition codes, then per
   stream its sync edges, halts and branch resolution, then every
   slot's class for {!Ximd_obs.Account} and the committing ops'
   dependence nodes for {!Ximd_obs.Critpath}.  A sync edge is a level
   that differs from [scratch.ss_before], the levels the branch
   evaluation read.  Fault drop masks stay armed until the next cycle
   begins, so a dropped write still classifies as lost here. *)

let[@inline] stream_of model ~n fu =
  match model with
  | Per_fu -> fu
  | Global -> 0
  | Banked -> if fu < n / 2 then 0 else 1

let[@inline] leader_of model ~n fu =
  match model with
  | Per_fu -> fu
  | Global -> 0
  | Banked -> if fu < n / 2 then 0 else n / 2

(* Only operations that stage a register or memory write can lose their
   result to an armed drop-write fault (I/O writes and compares bypass
   the staging ports). *)
let droppable = function
  | Parcel.Dbin _ | Parcel.Dun _ | Parcel.Dload _ | Parcel.Din _
  | Parcel.Dstore _ -> true
  | Parcel.Dnop | Parcel.Dcmp _ | Parcel.Dout _ -> false

let[@inline] op_reg = function
  | Operand.Reg r -> Reg.index r
  | Operand.Imm _ -> -1

(* Source/destination registers of a data op, decomposed to plain ints
   (-1 = none) so the stdlib-only obs layer never sees parcel types. *)
let issue_args = function
  | Parcel.Dnop -> (-1, -1, -1, false)
  | Parcel.Dbin { a; b; d; _ } -> (op_reg a, op_reg b, Reg.index d, false)
  | Parcel.Dun { a; d; _ } -> (op_reg a, -1, Reg.index d, false)
  | Parcel.Dcmp { a; b; _ } -> (op_reg a, op_reg b, -1, true)
  | Parcel.Dload { a; b; d } -> (op_reg a, op_reg b, Reg.index d, false)
  | Parcel.Dstore { a; b } -> (op_reg a, op_reg b, -1, false)
  | Parcel.Din { port; d } -> (op_reg port, -1, Reg.index d, false)
  | Parcel.Dout { a; port } -> (op_reg a, op_reg port, -1, false)

(* An fu×cycle slot's class (see {!Ximd_obs.Account} for the taxonomy
   and its priority). *)
let slot_class model (state : State.t) ~n fu : Ximd_obs.Account.cls =
  let s = state.scratch in
  if not s.was_live.(fu) then Halted
  else begin
    let data = s.parcels.(fu).data in
    let k = stream_of model ~n fu in
    let spun = s.spun.(k) in
    if Parcel.is_nop data then
      if not spun then Nop_padding
      else
        match s.ctrl.(k).control with
        | Control.Branch { cond = Cond.Ss _; _ } -> Spin_ss
        | Control.Branch { cond = Cond.All_ss _ | Cond.Any_ss _; _ } ->
          Barrier_wait
        | Control.Branch { cond = Cond.Cc _; _ } -> Spin_cc
        | Control.Branch { cond = Cond.Always1 | Cond.Always2; _ }
        | Control.Halt ->
          (* unreachable: a spinning stream executed a conditional *)
          Nop_padding
    else if spun then Squashed
    else
      let dropped =
        match state.faults with
        | Some f -> M.Fault.drops f ~fu && droppable data
        | None -> false
      in
      if dropped then Fault_lost else Commit
  end

(* Bind [fu]'s conditional branch to its control producers, as of the
   sync levels its evaluation read. *)
let bind_branch crit (s : State.scratch) ~n ~fu (cond : Cond.t) =
  match cond with
  | Cond.Cc j -> Ximd_obs.Critpath.bind_cc crit ~fu ~j
  | Cond.Ss j -> Ximd_obs.Critpath.bind_ss crit ~fu ~j
  | Cond.All_ss mask -> Ximd_obs.Critpath.bind_all crit ~fu ~mask
  | Cond.Any_ss mask ->
    let dm = ref 0 in
    for j = 0 to n - 1 do
      if mask land (1 lsl j) <> 0 && Sync.equal s.ss_before.(j) Sync.Done
      then dm := !dm lor (1 lsl j)
    done;
    Ximd_obs.Critpath.bind_any crit ~fu ~done_mask:!dm
  | Cond.Always1 | Cond.Always2 -> ()

let report model (state : State.t) obs ~live_streams =
  let module Sink = Ximd_obs.Sink in
  let n = State.n_fus state in
  let s = state.scratch in
  let cycle = state.cycle in
  for fu = 0 to n - 1 do
    if s.was_live.(fu) then begin
      Sink.on_fetch obs ~cycle ~fu ~pc:s.old_pcs.(leader_of model ~n fu);
      if not (Parcel.is_nop s.parcels.(fu).data) then Sink.on_data_op obs ~fu
    end
  done;
  if s.commit_results > 0 then
    Sink.on_commit obs ~cycle ~results:s.commit_results;
  for k = 0 to s.commit_ccs - 1 do
    Sink.on_cc obs ~cycle ~fu:s.cc_fu.(k) ~value:s.cc_val.(k)
  done;
  for fu = 0 to n - 1 do
    let k = stream_of model ~n fu in
    if s.was_live.(fu) then begin
      let ss = state.sss.(fu) in
      if not (Sync.equal ss s.ss_before.(fu)) then
        Sink.on_ss obs ~cycle ~fu ~to_done:(Sync.equal ss Sync.Done);
      match s.ctrl.(k).control with
      | Control.Halt -> Sink.on_halt obs ~cycle ~fu
      | Control.Branch _ -> ()
    end;
    (* a stream's branch resolution follows its last member's edges *)
    if s.str_live.(k) && (fu = n - 1 || stream_of model ~n (fu + 1) <> k)
    then
      match s.ctrl.(k).control with
      | Control.Branch { cond; _ } ->
        let leader = leader_of model ~n fu in
        Sink.on_control obs ~cycle ~fu:leader ~pc:s.old_pcs.(leader)
          ~spinning:s.spun.(k) ~sync:(Cond.is_sync cond)
      | Control.Halt -> ()
  done;
  let acct = Sink.account obs and crit = Sink.critpath obs in
  let latency = state.config.result_latency in
  for fu = 0 to n - 1 do
    let cls = slot_class model state ~n fu in
    (match acct with None -> () | Some a -> Ximd_obs.Account.tally a ~fu cls);
    match crit with
    | None -> ()
    | Some c -> (
      (if s.was_live.(fu) then
         match s.ctrl.(stream_of model ~n fu).control with
         | Control.Branch { cond; _ } -> bind_branch c s ~n ~fu cond
         | Control.Halt -> ());
      match cls with
      | Commit ->
        let r1, r2, w, sets_cc = issue_args s.parcels.(fu).data in
        Ximd_obs.Critpath.issue c ~cycle ~fu ~pc:s.old_pcs.(fu) ~r1 ~r2 ~w
          ~sets_cc ~latency
      | Nop_padding | Spin_ss | Spin_cc | Barrier_wait | Squashed | Fault_lost
      | Halted -> ())
  done;
  (match crit with
   | None -> ()
   | Some c ->
     for fu = 0 to n - 1 do
       if not (Sync.equal state.sss.(fu) s.ss_before.(fu)) then
         Ximd_obs.Critpath.ss_mark c ~fu
     done;
     Ximd_obs.Critpath.end_cycle c);
  Sink.on_cycle_end obs ~cycle ~live_streams

(* A finished stream reads as DONE (DESIGN.md §5) — except under the
   global sequencer, where sync signals have no architectural role. *)
let[@inline] halt_fu model (state : State.t) ~fu =
  state.halted.(fu) <- true;
  match model with
  | Per_fu | Banked -> state.sss.(fu) <- Sync.Done
  | Global -> ()

(* ------------------------------------------------------------------ *)
(* Partition recompute.  The partition lives in [state.scratch.labels]
   as each FU's lowest SSET-mate, rewritten in place every cycle; the
   list form in [state.partition] is rebuilt only when a label moves, so
   a grouping that holds (one synchronous stream, a spin loop) costs
   no allocation. *)

let[@inline] relabel (labels : int array) fu l changed =
  if labels.(fu) <> l then begin
    labels.(fu) <- l;
    true
  end
  else changed

(* The control operation an FU executed this cycle: a halted slot
   executed [Halt]. *)
let[@inline] executed (s : State.scratch) fu =
  if s.was_live.(fu) then s.parcels.(fu).control else Control.Halt

(* The lowest FU below [fu] that leads an SSET and executed a control
   operation with [fu]'s normalised signature; [fu] itself if none. *)
let rec first_mate (s : State.scratch) fu j =
  if j >= fu then fu
  else if
    s.labels.(j) = j
    && Control.same_signature (executed s j) ~pc_a:s.old_pcs.(j)
         (executed s fu) ~pc_b:s.old_pcs.(fu)
  then j
  else first_mate s fu (j + 1)

(* Per-FU sequencers: FUs whose executed control operations have equal
   normalised signatures share an SSET (see {!Partition}). *)
let label_per_fu (s : State.scratch) n =
  let changed = ref false in
  for fu = 0 to n - 1 do
    changed := relabel s.labels fu (first_mate s fu 0) !changed
  done;
  !changed

(* A bank's next PC, or -1 once its leader halted or the PC left the
   program. *)
let[@inline] bank_next (state : State.t) ~len leader =
  let pc = state.pcs.(leader) in
  if state.halted.(leader) || pc < 0 || pc >= len then -1 else pc

(* Two banks: each bank is one SSET, and the banks merge when their
   next PCs are equal (two stopped banks count as equal). *)
let label_banked (state : State.t) n ~len =
  let half = n / 2 in
  let upper =
    if bank_next state ~len 0 = bank_next state ~len half then 0 else half
  in
  let changed = ref false in
  for fu = 0 to n - 1 do
    changed :=
      relabel state.scratch.labels fu (if fu < half then 0 else upper)
        !changed
  done;
  !changed

let[@inline] repartition (state : State.t) changed =
  if changed then state.partition <- Partition.of_labels state.scratch.labels;
  Partition.count_live state.partition ~halted:state.halted

(* ------------------------------------------------------------------ *)

let step model (state : State.t) =
  if State.all_halted state then ()
  else begin
    hook_cycle_top state;
    let n = State.n_fus state in
    let stats = state.stats in
    let s = state.scratch in
    let parcels = s.parcels
    and was_live = s.was_live
    and taken = s.taken
    and str_live = s.str_live
    and ctrl = s.ctrl in
    let program = state.program in
    let len = Program.length program in
    let ns = n_streams model ~n in
    (* Fetch.  Each live stream's sequencer selects one row; members
       fetch their own parcels.  A live stream whose PC is outside the
       program has fallen off the end: report against the sequencer's FU
       and treat the stream as fetching halt parcels. *)
    for k = 0 to ns - 1 do
      let leader, last = stream_bounds model ~n k in
      let live =
        match model with
        | Per_fu | Banked -> not state.halted.(leader)
        | Global -> true (* [all_halted] already returned above *)
      in
      str_live.(k) <- live;
      if not live then begin
        ctrl.(k) <- Parcel.halted;
        for fu = leader to last do
          was_live.(fu) <- false;
          parcels.(fu) <- Parcel.halted
        done
      end
      else begin
        let pc = state.pcs.(leader) in
        let in_range = pc >= 0 && pc < len in
        if not in_range then
          M.Hazard.report state.log ~cycle:state.cycle
            (M.Hazard.Fell_off_end
               { fu = seq_fu model state ~leader ~last; addr = pc });
        let row = if in_range then Program.row program pc else [||] in
        ctrl.(k) <- (if in_range then row.(leader) else Parcel.halted);
        for fu = leader to last do
          if state.halted.(fu) then begin
            was_live.(fu) <- false;
            parcels.(fu) <- Parcel.halted
          end
          else begin
            was_live.(fu) <- true;
            parcels.(fu) <- (if in_range then row.(fu) else Parcel.halted)
          end
        done
      end
    done;
    (* Branch-condition evaluation against start-of-cycle CC/SS, one
       evaluation per sequencer. *)
    for k = 0 to ns - 1 do
      taken.(k) <-
        str_live.(k)
        &&
        match ctrl.(k).control with
        | Control.Halt -> false
        | Control.Branch { cond; _ } ->
          let leader, last = stream_bounds model ~n k in
          Exec.eval_cond state ~fu:(seq_fu model state ~leader ~last) cond
    done;
    (* Data operations: every issuing FU executes; an idle slot is a
       halted slot. *)
    for fu = 0 to n - 1 do
      if was_live.(fu) then Exec.exec_data state ~fu parcels.(fu).data
      else stats.halted_slots <- stats.halted_slots + 1
    done;
    Exec.commit_cycle state;
    (* The sync levels the branch evaluation read, kept for {!report}. *)
    (match state.obs with
     | None -> ()
     | Some _ -> Array.blit state.sss 0 s.ss_before 0 n);
    (* Control commit: sync signals, next PCs, halts; spin and branch
       statistics (branches charged once per sequencer, spin slots once
       per issuing member). *)
    let old_pcs = s.old_pcs in
    Array.blit state.pcs 0 old_pcs 0 n;
    for k = 0 to ns - 1 do
      s.spun.(k) <- false;
      if str_live.(k) then begin
        let leader, last = stream_bounds model ~n k in
        match ctrl.(k).control with
        | Control.Halt ->
          for fu = leader to last do
            if was_live.(fu) then halt_fu model state ~fu
          done
        | Control.Branch { cond; _ } as control ->
          (match model with
           | Global -> () (* sync signals have no architectural role *)
           | Per_fu | Banked ->
             for fu = leader to last do
               if was_live.(fu) then state.sss.(fu) <- parcels.(fu).sync
             done);
          if not (Cond.is_unconditional cond) then
            stats.cond_branches <- stats.cond_branches + 1;
          let pc = old_pcs.(leader) in
          (match Control.resolve control ~pc ~taken:taken.(k) with
           | Some next ->
             let spinning = next = pc && not (Cond.is_unconditional cond) in
             s.spun.(k) <- spinning;
             (* one spin slot per issuing member, not per sequencer: a
                spinning k-FU stream wastes k slots (the accounting
                conservation property flushed out the old per-stream
                charge, which understated Global/Banked spins) *)
             if spinning then
               for fu = leader to last do
                 if was_live.(fu) then
                   stats.spin_slots <- stats.spin_slots + 1
               done;
             for fu = leader to last do
               state.pcs.(fu) <- next
             done
           | None -> assert false)
      end
    done;
    (* Partition recompute — the point where the models genuinely
       diverge (paper Figure 3):
       - per-FU sequencers group FUs by the normalised signatures of the
         control operations they just executed (see {!Partition});
       - the global sequencer's partition is fixed at the initial full
         SSET;
       - the banked machine groups by each bank's forthcoming address:
         banks at the same PC next cycle merge, as in lock-step mode. *)
    let live_streams =
      match model with
      | Global ->
        if stats.max_streams < 1 then stats.max_streams <- 1;
        if State.all_halted state then 0 else 1
      | Per_fu -> repartition state (label_per_fu s n)
      | Banked -> repartition state (label_banked state n ~len)
    in
    if live_streams > stats.max_streams then stats.max_streams <- live_streams;
    (* The finished cycle goes to the sink from one place. *)
    (match state.obs with
     | None -> ()
     | Some obs -> report model state obs ~live_streams);
    state.cycle <- state.cycle + 1;
    stats.cycles <- state.cycle
  end
