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
(* Cross-cutting hooks.  The observability sink and fault injector
   are threaded through the pipeline exactly once, here: each helper
   costs one predictable branch when its facility is off (the
   single-branch-when-[None] discipline of [state.faults]/[state.obs]),
   and no engine-specific copy exists to drift. *)

let[@inline] hook_cycle_top (state : State.t) =
  (match state.obs with
   | None -> ()
   | Some obs ->
     (* same timing as the tracer row {!Session.run} records just
        before the step: the partition in effect at the top of the
        cycle, before faults land *)
     Ximd_obs.Sink.on_partition obs ~cycle:state.cycle
       ~ssets:(Partition.ssets state.partition));
  match state.faults with
  | None -> ()
  | Some f -> Exec.apply_faults state f

let[@inline] hook_fetch (state : State.t) ~fu ~pc =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_fetch obs ~cycle:state.cycle ~fu ~pc

(* Set an FU's sync signal, reporting the edge (not the level) to the
   sink. *)
let[@inline] set_ss (state : State.t) ~fu sync =
  let old_ss = state.sss.(fu) in
  state.sss.(fu) <- sync;
  match state.obs with
  | None -> ()
  | Some obs ->
    if not (Sync.equal old_ss sync) then begin
      state.scratch.ss_edge.(fu) <- true;
      Ximd_obs.Sink.on_ss obs ~cycle:state.cycle ~fu
        ~to_done:(Sync.equal sync Sync.Done)
    end

let[@inline] hook_halt (state : State.t) ~fu =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_halt obs ~cycle:state.cycle ~fu

let[@inline] hook_control (state : State.t) ~fu ~pc ~spinning ~sync =
  match state.obs with
  | None -> ()
  | Some obs ->
    Ximd_obs.Sink.on_control obs ~cycle:state.cycle ~fu ~pc ~spinning ~sync

let[@inline] hook_cycle_end (state : State.t) ~live_streams =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_cycle_end obs ~cycle:state.cycle ~live_streams

(* ------------------------------------------------------------------ *)
(* Why-analysis sampling (DESIGN.md §9).  The engine is the only place
   that knows why a slot was idle, so it classifies every fu×cycle slot
   for {!Ximd_obs.Account} and feeds the realised dependences to
   {!Ximd_obs.Critpath} — both behind the same single-[match]-on-[obs]
   discipline as every other hook, so a detached run pays nothing. *)

let[@inline] stream_of model ~n fu =
  match model with
  | Per_fu -> fu
  | Global -> 0
  | Banked -> if fu < n / 2 then 0 else 1

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

(* Bind a conditional branch's control producers for every issuing
   member of its stream, as of start-of-cycle state — called from the
   branch-evaluation phase, before any of this cycle's issues. *)
let bind_stream (state : State.t) obs ~leader ~last cond =
  let was_live = state.scratch.was_live in
  for fu = leader to last do
    if was_live.(fu) then
      match (cond : Cond.t) with
      | Cond.Cc j -> Ximd_obs.Sink.cp_bind_cc obs ~fu ~j
      | Cond.Ss j -> Ximd_obs.Sink.cp_bind_ss obs ~fu ~j
      | Cond.All_ss mask -> Ximd_obs.Sink.cp_bind_all obs ~fu ~mask
      | Cond.Any_ss mask ->
        let dm = ref 0 in
        for j = 0 to State.n_fus state - 1 do
          if mask land (1 lsl j) <> 0 && Sync.equal state.sss.(j) Sync.Done
          then dm := !dm lor (1 lsl j)
        done;
        Ximd_obs.Sink.cp_bind_any obs ~fu ~done_mask:!dm
      | Cond.Always1 | Cond.Always2 -> ()
  done

let[@inline] hook_bind model (state : State.t) ~ns =
  match state.obs with
  | None -> ()
  | Some obs ->
    if Ximd_obs.Sink.wants_critpath obs then begin
      let n = State.n_fus state in
      let s = state.scratch in
      for k = 0 to ns - 1 do
        if s.str_live.(k) then
          match s.ctrl.(k).control with
          | Control.Branch { cond; _ } when not (Cond.is_unconditional cond)
            ->
            let leader, last = stream_bounds model ~n k in
            bind_stream state obs ~leader ~last cond
          | Control.Branch _ | Control.Halt -> ()
      done
    end

(* Classify every slot of the cycle (see {!Ximd_obs.Account} for the
   taxonomy and priority) and create the committing ops' dependence
   nodes.  Runs after control commit, so [spun]/[ss_edge] reflect this
   cycle; fault drop masks stay armed until the next cycle begins. *)
let slot_accounting model (state : State.t) obs =
  let n = State.n_fus state in
  let s = state.scratch in
  let wants_cp = Ximd_obs.Sink.wants_critpath obs in
  let latency = state.config.result_latency in
  for fu = 0 to n - 1 do
    let cls : Ximd_obs.Account.cls =
      if not s.was_live.(fu) then Halted
      else begin
        let data = s.parcels.(fu).data in
        let spun = s.spun.(stream_of model ~n fu) in
        if Parcel.is_nop data then
          if not spun then Nop_padding
          else
            match s.ctrl.(stream_of model ~n fu).control with
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
    in
    Ximd_obs.Sink.on_slot obs ~fu cls;
    if wants_cp && cls = Commit then begin
      let r1, r2, w, sets_cc = issue_args s.parcels.(fu).data in
      Ximd_obs.Sink.cp_issue obs ~cycle:state.cycle ~fu ~pc:s.old_pcs.(fu)
        ~r1 ~r2 ~w ~sets_cc ~latency
    end
  done;
  if wants_cp then begin
    for fu = 0 to n - 1 do
      if s.ss_edge.(fu) then begin
        s.ss_edge.(fu) <- false;
        Ximd_obs.Sink.cp_ss_mark obs ~fu
      end
    done;
    Ximd_obs.Sink.cp_end_cycle obs
  end

let[@inline] hook_slots model (state : State.t) =
  match state.obs with
  | None -> ()
  | Some obs -> slot_accounting model state obs

(* A finished stream reads as DONE (DESIGN.md §5) — except under the
   global sequencer, where sync signals have no architectural role. *)
let[@inline] halt_fu model (state : State.t) ~fu =
  state.halted.(fu) <- true;
  (match model with
   | Per_fu | Banked -> set_ss state ~fu Sync.Done
   | Global -> ());
  hook_halt state ~fu

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
            parcels.(fu) <- (if in_range then row.(fu) else Parcel.halted);
            hook_fetch state ~fu ~pc
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
    (* Critical-path only: bind conditional branches' control producers
       against the same start-of-cycle state the evaluation read. *)
    hook_bind model state ~ns;
    (* Data operations: every issuing FU executes; an idle slot is a
       halted slot. *)
    for fu = 0 to n - 1 do
      if was_live.(fu) then Exec.exec_data state ~fu parcels.(fu).data
      else stats.halted_slots <- stats.halted_slots + 1
    done;
    Exec.commit_cycle state;
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
               if was_live.(fu) then set_ss state ~fu parcels.(fu).sync
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
             done;
             hook_control state ~fu:leader ~pc ~spinning
               ~sync:(Cond.is_sync cond)
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
    hook_slots model state;
    hook_cycle_end state ~live_streams;
    state.cycle <- state.cycle + 1;
    stats.cycles <- state.cycle
  end
