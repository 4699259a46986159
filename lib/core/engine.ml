open Ximd_isa
module M = Ximd_machine

(* One cycle pipeline for all three machine models.  The
   paper's subsumption argument (§2, Figure 3) — a VLIW is the
   degenerate XIMD with one global sequencer, the TRACE/500 the
   two-sequencer point in between — is encoded structurally: each cycle
   the FUs form groups, and fetch, branch evaluation and next-PC
   resolution run once per group.  A model only chooses the grouping
   rule, who counts as a sequencer, the SS discipline and the partition
   rule.  Under per-FU sequencers the groups form afresh every cycle
   (the FUs at one PC with equal control fields), so VLIW-shaped code
   costs xsim one sequencer step per cycle, as it costs vsim.  The loop
   that runs a program to completion is {!Session.run}.

   All reads observe start-of-cycle state; all writes commit at the end
   (paper §2.2, verified against the Figure 10 trace — see DESIGN.md
   §5).  Every phase runs from the program's decoded image
   ([Program.image]): fetch stores row and slot indices, the data path
   runs from resolved operands, and the next PC is one of a slot's two
   resolved targets, so only the sink's [report] reads parcels, back
   from the program.  The loop keeps its per-cycle buffers, the groups
   and the partition's label vector included, in the preallocated
   [state.scratch], and machine values are immediate ints, so the data
   path, the control phase and an unchanged partition allocate
   nothing.  A cycle still allocates: the closure in [State.all_halted]
   (twice a step under the global sequencer) and a new partition when
   the grouping changes; [ledger.exe trace] counts the words per cycle
   as [engine.M.step_words]. *)

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

(* The stream count and FU ranges of the models' fixed sequencers,
   kept only for bench/ledger/layers.ml, whose phase probes restate the
   step through them. *)
let n_streams model ~n =
  match model with Per_fu -> n | Global -> 1 | Banked -> 2

let stream_bounds model ~n k =
  match model with
  | Per_fu -> (k, k)
  | Global -> (0, n - 1)
  | Banked -> if k = 0 then (0, (n / 2) - 1) else (n / 2, n - 1)

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
   dependence nodes for {!Ximd_obs.Critpath}.  The sink's streams are
   the sequencers: every issuing FU under per-FU sequencers, each
   running group otherwise; a group's members read its control parcel
   and spin flag.  A sync edge is a level that differs from
   [scratch.ss_before], the levels the branch evaluation read.  Fault
   drop masks stay armed until the next cycle begins, so a dropped
   write still classifies as lost here. *)

(* The stream whose branch resolution the sink hears once [fu]'s edges
   are out, named by the FU it reports against, or -1: every issuing FU
   under per-FU sequencers; a running group after its last member
   otherwise. *)
let[@inline] resolution_at model (s : State.scratch) ~n fu =
  match model with
  | Per_fu -> if s.was_live.(fu) then fu else -1
  | Global | Banked ->
    let l = s.lead.(fu) in
    if l >= 0 && (fu = n - 1 || s.lead.(fu + 1) <> l) then l else -1

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

(* The parcel in image slot [k], read back from the program: the row
   past the end is the halt row.  [group_control] is the control field
   group [l] ran. *)
let parcel (state : State.t) k =
  let n = State.n_fus state in
  let addr = k / n in
  if addr < Program.length state.program then
    (Program.row state.program addr).(k mod n)
  else Parcel.halted

let group_control (state : State.t) l =
  (parcel state state.scratch.ctrl.(l)).control

(* An fu×cycle slot's class (see {!Ximd_obs.Account} for the taxonomy
   and its priority). *)
let slot_class (state : State.t) fu : Ximd_obs.Account.cls =
  let s = state.scratch in
  if not s.was_live.(fu) then Halted
  else begin
    let data = (parcel state s.slots.(fu)).data in
    let l = s.lead.(fu) in
    let spun = s.spun.(l) in
    if Parcel.is_nop data then
      if not spun then Nop_padding
      else
        match group_control state l with
        | Control.Branch { cond = Cond.Ss _; _ } -> Spin_ss
        | Control.Branch { cond = Cond.All_ss _ | Cond.Any_ss _; _ } ->
          Barrier_wait
        | Control.Branch { cond = Cond.Cc _; _ } -> Spin_cc
        | Control.Branch { cond = Cond.Always1 | Cond.Always2; _ }
        | Control.Halt ->
          (* unreachable: a spinning group executed a conditional *)
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
      Sink.on_fetch obs ~cycle ~fu ~pc:s.old_pcs.(s.lead.(fu));
      if not (Parcel.is_nop (parcel state s.slots.(fu)).data) then
        Sink.on_data_op obs ~fu
    end
  done;
  if s.commit_results > 0 then
    Sink.on_commit obs ~cycle ~results:s.commit_results;
  for k = 0 to s.commit_ccs - 1 do
    Sink.on_cc obs ~cycle ~fu:s.cc_fu.(k) ~value:s.cc_val.(k)
  done;
  for fu = 0 to n - 1 do
    if s.was_live.(fu) then begin
      let ss = state.sss.(fu) in
      if not (Sync.equal ss s.ss_before.(fu)) then
        Sink.on_ss obs ~cycle ~fu ~to_done:(Sync.equal ss Sync.Done);
      match group_control state s.lead.(fu) with
      | Control.Halt -> Sink.on_halt obs ~cycle ~fu
      | Control.Branch _ -> ()
    end;
    (* a stream's branch resolution follows its last member's edges *)
    let r = resolution_at model s ~n fu in
    if r >= 0 then
      let l = s.lead.(fu) in
      match group_control state l with
      | Control.Branch { cond; _ } ->
        Sink.on_control obs ~cycle ~fu:r ~pc:s.old_pcs.(r) ~spinning:s.spun.(l)
          ~sync:(Cond.is_sync cond)
      | Control.Halt -> ()
  done;
  let acct = Sink.account obs and crit = Sink.critpath obs in
  let latency = state.config.result_latency in
  for fu = 0 to n - 1 do
    let cls = slot_class state fu in
    (match acct with None -> () | Some a -> Ximd_obs.Account.tally a ~fu cls);
    match crit with
    | None -> ()
    | Some c -> (
      (if s.was_live.(fu) then
         match group_control state s.lead.(fu) with
         | Control.Branch { cond; _ } -> bind_branch c s ~n ~fu cond
         | Control.Halt -> ());
      match cls with
      | Commit ->
        let r1, r2, w, sets_cc = issue_args (parcel state s.slots.(fu)).data in
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

(* ------------------------------------------------------------------ *)
(* What stays per model: the grouping rule, who counts as a sequencer,
   the SS discipline and the partition rule (below). *)

(* The lowest group leader below [fu] at [pc] whose control class is
   [c] (-1: the PC is outside the program, where every FU fetches halt
   parcels), or [fu] itself if there is none. *)
let rec find_group (lead : int array) (pcs : int array) classes ~n ~pc ~c fu j
    =
  if j >= fu then fu
  else if
    lead.(j) = j && pcs.(j) = pc && (c < 0 || classes.((pc * n) + j) = c)
  then j
  else find_group lead pcs classes ~n ~pc ~c fu (j + 1)

(* The grouping rule: the leader of [fu]'s group, given the groups of
   the FUs below it, or -1 for an FU in no running group.
   - Per-FU sequencers: the live FUs at one PC whose control fields are
     equal (one entry of the program's class table) form a group; they
     would select the same row, evaluate the same condition and resolve
     the same next PC.  Halted FUs are in no group.
   - The global sequencer: one group of all FUs, whose row and control
     come from FU 0's PC and parcel even if a fault stuck FU 0.
   - Two banks: each bank is a group while its first FU runs; a halted
     bank leader stops its whole bank.
   [classes] is the class table of the program's image. *)
let[@inline] lead_of model (state : State.t) classes ~n ~len fu =
  match model with
  | Global -> 0
  | Banked ->
    let l = if fu < n / 2 then 0 else n / 2 in
    if state.halted.(l) then -1 else l
  | Per_fu ->
    if state.halted.(fu) then -1
    else
      let pc = state.pcs.(fu) in
      let c = if pc >= 0 && pc < len then classes.((pc * n) + fu) else -1 in
      find_group state.scratch.lead state.pcs classes ~n ~pc ~c fu 0

(* Who counts as a sequencer: every issuing FU under per-FU sequencers;
   otherwise one per group, blamed on its lowest issuing FU — the global
   sequencer is not an FU of its own, and with no fault injected that
   FU is the leader.  [sequencers] counts a group's, [sequencer] says
   whether [fu] is one (for blame, off the common path). *)
let[@inline] sequencers model ~members =
  match model with Per_fu -> members | Global | Banked -> 1

let rec first_issuer (s : State.scratch) l fu =
  if s.lead.(fu) = l && s.was_live.(fu) then fu else first_issuer s l (fu + 1)

let sequencer model (s : State.scratch) fu =
  s.was_live.(fu)
  &&
  match model with
  | Per_fu -> true
  | Global | Banked -> first_issuer s s.lead.(fu) 0 = fu

(* The SS discipline: sync signals have no architectural role under the
   global sequencer; otherwise an FU drives its parcel's sync value and
   a finished FU reads as DONE (DESIGN.md §5). *)
let[@inline] drives_ss = function Per_fu | Banked -> true | Global -> false

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

(* The lowest FU below [fu] that leads an SSET and executed a control
   operation with [fu]'s normalised signature; [fu] itself if none.  A
   halted FU's slot is in the halt row, so it executed [Halt]. *)
let rec first_mate (s : State.scratch) img fu j =
  if j >= fu then fu
  else if
    s.labels.(j) = j && Program.same_signature img s.slots.(j) s.slots.(fu)
  then j
  else first_mate s img fu (j + 1)

(* Per-FU sequencers: FUs whose executed control operations have equal
   normalised signatures share an SSET (see {!Partition}).  A group's
   members executed its leader's control operation at its PC, so they
   take the leader's label and only leaders are compared. *)
let label_per_fu (s : State.scratch) img n =
  let changed = ref false in
  for fu = 0 to n - 1 do
    let l = s.lead.(fu) in
    let label =
      if l >= 0 && l < fu then s.labels.(l) else first_mate s img fu 0
    in
    changed := relabel s.labels fu label !changed
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

(* The partition rule (paper Figure 3), returning the live stream count:
   - per-FU sequencers group FUs by the normalised signatures of the
     control operations they just executed (see {!Partition});
   - the global sequencer's partition is fixed at the initial full SSET,
     and it runs one stream for every cycle it runs;
   - the banked machine groups by each bank's forthcoming address:
     banks at the same PC next cycle merge, as in lock-step mode. *)
let partition model (state : State.t) img ~n ~len =
  match model with
  | Per_fu -> repartition state (label_per_fu state.scratch img n)
  | Banked -> repartition state (label_banked state n ~len)
  | Global ->
    let stats = state.stats in
    if stats.max_streams < 1 then stats.max_streams <- 1;
    if State.all_halted state then 0 else 1

(* ------------------------------------------------------------------ *)

let step model (state : State.t) =
  if State.all_halted state then ()
  else begin
    hook_cycle_top state;
    let n = State.n_fus state in
    let stats = state.stats in
    let s = state.scratch in
    let lead = s.lead
    and slots = s.slots
    and was_live = s.was_live
    and ctrl = s.ctrl
    and taken = s.taken
    and pcs = state.pcs
    and halted = state.halted
    and sss = state.sss in
    let program = state.program in
    let len = Program.length program in
    let img = Program.image program in
    (* Fetch.  Each group selects one row of the image, at its leader's
       PC, and each issuing member takes its own slot in it; a group
       whose PC is outside the program has fallen off the end and
       fetches the halt row.  The leaders are listed in FU order. *)
    let leaders = s.leaders and members = s.members and rows = s.rows in
    let groups = ref 0 and fell = ref false in
    for fu = 0 to n - 1 do
      let l = lead_of model state img.classes ~n ~len fu in
      lead.(fu) <- l;
      if l = fu then begin
        let pc = pcs.(fu) in
        let row =
          if pc >= 0 && pc < len then pc
          else begin
            fell := true;
            len
          end
        in
        rows.(fu) <- row;
        ctrl.(fu) <- (row * n) + fu;
        members.(fu) <- 0;
        leaders.(!groups) <- fu;
        incr groups
      end;
      if l < 0 || halted.(fu) then begin
        was_live.(fu) <- false;
        slots.(fu) <- (len * n) + fu
      end
      else begin
        was_live.(fu) <- true;
        slots.(fu) <- (rows.(l) * n) + fu;
        members.(l) <- members.(l) + 1
      end
    done;
    let groups = !groups in
    (* Each sequencer that fell off the end reports it, in FU order. *)
    if !fell then
      for fu = 0 to n - 1 do
        if sequencer model s fu then begin
          let pc = pcs.(lead.(fu)) in
          if pc < 0 || pc >= len then
            M.Hazard.report state.log ~cycle:state.cycle
              (M.Hazard.Fell_off_end { fu; addr = pc })
        end
      done;
    (* Branch-condition evaluation against start-of-cycle CC/SS, once
       per group and only for conditional branches (an unconditional
       one has one destination); then each sequencer that read a
       never-set condition code reports it, in FU order. *)
    let unset = ref false in
    for g = 0 to groups - 1 do
      let l = leaders.(g) in
      let c = ctrl.(l) in
      if img.conditional.(c) then begin
        let cond = img.cond.(c) in
        if Exec.unset_cc state cond >= 0 then unset := true;
        taken.(l) <- Exec.holds state cond
      end
    done;
    if !unset then
      for fu = 0 to n - 1 do
        if sequencer model s fu then
          let c = ctrl.(lead.(fu)) in
          if img.conditional.(c) then
            let j = Exec.unset_cc state img.cond.(c) in
            if j >= 0 then Exec.undefined_cc state ~fu j
      done;
    (* Data operations: every issuing FU executes its slot; an idle slot
       is a halted slot. *)
    Exec.exec_cycle state img;
    Exec.commit_cycle state;
    (* The sync levels the branch evaluation read, kept for {!report}. *)
    (match state.obs with
     | None -> ()
     | Some _ -> Array.blit sss 0 s.ss_before 0 n);
    (* Control commit.  Each group resolves its next PC once (-1: it
       halts); conditional branches are charged once per sequencer and
       spin slots once per issuing member, so a spinning k-FU group
       wastes k slots.  Then every member takes the next PC, issuing
       members drive their sync signals, and a halting group stops its
       issuing members. *)
    let old_pcs = s.old_pcs and next_pc = s.next_pc and spun = s.spun in
    Array.blit pcs 0 old_pcs 0 n;
    for g = 0 to groups - 1 do
      let l = leaders.(g) in
      let c = ctrl.(l) in
      let conditional = img.conditional.(c) in
      let next =
        if conditional && not taken.(l) then img.t2.(c) else img.t1.(c)
      in
      let spinning = conditional && next = old_pcs.(l) in
      next_pc.(l) <- next;
      spun.(l) <- spinning;
      if conditional then
        stats.cond_branches <-
          stats.cond_branches + sequencers model ~members:members.(l);
      if spinning then stats.spin_slots <- stats.spin_slots + members.(l)
    done;
    let drives_ss = drives_ss model in
    for fu = 0 to n - 1 do
      let l = lead.(fu) in
      if l >= 0 then begin
        let next = next_pc.(l) in
        if next < 0 then begin
          if was_live.(fu) then begin
            halted.(fu) <- true;
            if drives_ss then sss.(fu) <- Sync.Done
          end
        end
        else begin
          if drives_ss && was_live.(fu) then sss.(fu) <- img.sync.(slots.(fu));
          pcs.(fu) <- next
        end
      end
    done;
    let live_streams = partition model state img ~n ~len in
    if live_streams > stats.max_streams then stats.max_streams <- live_streams;
    (* The finished cycle goes to the sink from one place. *)
    (match state.obs with
     | None -> ()
     | Some obs -> report model state obs ~live_streams);
    state.cycle <- state.cycle + 1;
    stats.cycles <- state.cycle
  end
