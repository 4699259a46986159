open Ximd_isa

type t = {
  ring : Event.t Ring.t;
  trace : bool;
  registry : Metrics.t;
  (* preregistered handles: hooks never search the registry *)
  m_cycles : Metrics.counter;
  m_commits : Metrics.counter;
  m_cc : Metrics.counter;
  m_ss : Metrics.counter;
  m_partitions : Metrics.counter;
  m_faults : Metrics.counter;
  m_halts : Metrics.counter;
  m_dropped : Metrics.counter;  (* mirror of the ring's drop count *)
  m_fu_ops : Metrics.counter array;
  m_fu_live : Metrics.counter array;
  g_streams : Metrics.gauge;
  h_sset_width : Metrics.histogram;
  h_spin_streak : Metrics.histogram;
  h_barrier_wait : Metrics.histogram;
  h_commit_batch : Metrics.histogram;
  (* busy-wait streak tracking, per FU *)
  spin_pc : int array;  (* -1 = no open streak *)
  spin_start : int array;
  spin_sync : bool array;
  (* barrier-wait attribution: pc -> (entries, total waited) *)
  barriers : (int, int * int) Hashtbl.t;
  prof : Profile.t option;
  acct : Account.t option;
  crit : Critpath.t option;
  n_fus : int;
  mutable parts_rev : (int * int list list) list;
  mutable last_part : int list list;
  mutable final_cycle : int;
  mutable finished : bool;
}

(* The ring holds the newest 65,536 events; a sink that records none
   gets a one-slot ring nothing pushes to. *)
let ring_capacity = 1 lsl 16

(* The architectural register count, which sizes the critical-path
   register table. *)
let n_regs = 256

let create ?(trace = true) ?(profile = true) ?(account = true)
    ?(critpath = false) ~n_fus ~code_len () =
  if n_fus < 1 || n_fus > 64 then
    invalid_arg "Sink.create: n_fus must be in [1, 64]";
  let registry = Metrics.create () in
  { ring =
      Ring.create ~capacity:(if trace then ring_capacity else 1)
        ~dummy:Event.dummy;
    trace;
    registry;
    m_cycles = Metrics.counter registry "cycles";
    m_commits = Metrics.counter registry "commits";
    m_cc = Metrics.counter registry "cc_broadcasts";
    m_ss = Metrics.counter registry "ss_transitions";
    m_partitions = Metrics.counter registry "partition_changes";
    m_faults = Metrics.counter registry "faults_fired";
    m_halts = Metrics.counter registry "halts";
    m_dropped = Metrics.counter registry "events_dropped";
    m_fu_ops =
      Array.init n_fus (fun fu ->
        Metrics.counter registry (Printf.sprintf "fu%d/ops" fu));
    m_fu_live =
      Array.init n_fus (fun fu ->
        Metrics.counter registry (Printf.sprintf "fu%d/live_cycles" fu));
    g_streams = Metrics.gauge registry "live_streams";
    h_sset_width = Metrics.histogram registry "sset_width";
    h_spin_streak = Metrics.histogram registry "spin_streak";
    h_barrier_wait = Metrics.histogram registry "barrier_wait";
    h_commit_batch = Metrics.histogram registry "commit_batch";
    spin_pc = Array.make n_fus (-1);
    spin_start = Array.make n_fus 0;
    spin_sync = Array.make n_fus false;
    barriers = Hashtbl.create 16;
    prof = (if profile then Some (Profile.create ~n_fus ~code_len) else None);
    acct = (if account then Some (Account.create ~n_fus) else None);
    crit = (if critpath then Some (Critpath.create ~n_fus ~n_regs) else None);
    n_fus;
    parts_rev = [];
    last_part = [];
    final_cycle = 0;
    finished = false }

let n_fus t = t.n_fus

(* ------------------------------------------------------------------ *)
(* Hooks.  Each tests [t.trace] before it builds an event, so a sink
   without a ring allocates none. *)

let commit t ~cycle results =
  if results > 0 then begin
    Metrics.add t.m_commits results;
    Metrics.observe t.h_commit_batch results;
    if t.trace then Ring.push t.ring (Event.Commit { cycle; results })
  end

let close_streak t ~cycle fu =
  let pc = t.spin_pc.(fu) in
  if pc >= 0 then begin
    t.spin_pc.(fu) <- -1;
    let waited = cycle - t.spin_start.(fu) in
    Metrics.observe t.h_spin_streak waited;
    if t.spin_sync.(fu) then begin
      Metrics.observe t.h_barrier_wait waited;
      let entries, total =
        match Hashtbl.find_opt t.barriers pc with
        | Some (e, w) -> (e, w)
        | None -> (0, 0)
      in
      Hashtbl.replace t.barriers pc (entries + 1, total + waited);
      if t.trace then
        Ring.push t.ring (Event.Barrier_exit { cycle; fu; pc; waited })
    end
  end

(* A stream's branch resolution: a streak opens on its first spinning
   cycle and closes when it moves on. *)
let resolve t ~cycle ~fu ~pc ~spinning ~sync =
  if spinning then begin
    if t.spin_pc.(fu) <> pc then begin
      close_streak t ~cycle fu;
      t.spin_pc.(fu) <- pc;
      t.spin_start.(fu) <- cycle;
      t.spin_sync.(fu) <- sync;
      if sync && t.trace then
        Ring.push t.ring (Event.Barrier_enter { cycle; fu; pc })
    end
  end
  else close_streak t ~cycle fu

(* The partition is a new value exactly when the grouping changed, so a
   physical compare finds the changes. *)
let on_partition t ~cycle ~ssets =
  if ssets != t.last_part then begin
    t.last_part <- ssets;
    t.parts_rev <- (cycle, ssets) :: t.parts_rev;
    Metrics.incr t.m_partitions;
    if t.trace then
      Ring.push t.ring (Event.Partition_change { cycle; ssets })
  end

(* The FU that [fu]'s stream reports its branch resolution against once
   [fu]'s edges are out, or -1: every issuing FU is its own stream under
   per-FU sequencers; otherwise a running group reports against its
   leader after its last member. *)
let[@inline] resolution (c : Cycle.t) ~n fu =
  if c.fu_streams then if c.was_live.(fu) then fu else -1
  else
    let l = c.lead.(fu) in
    if l >= 0 && (fu = n - 1 || c.lead.(fu + 1) <> l) then l else -1

let on_cycle t (c : Cycle.t) =
  let n = t.n_fus and cycle = c.cycle in
  for fu = 0 to n - 1 do
    if c.was_live.(fu) then begin
      let pc = c.old_pcs.(c.lead.(fu)) in
      Metrics.incr t.m_fu_live.(fu);
      (match t.prof with None -> () | Some p -> Profile.sample p ~fu ~pc);
      if t.trace then Ring.push t.ring (Event.Fetch { cycle; fu; pc });
      match c.cls.(fu) with
      | Commit | Squashed | Fault_lost -> Metrics.incr t.m_fu_ops.(fu)
      | Nop_padding | Spin_ss | Spin_cc | Barrier_wait | Halted -> ()
    end
  done;
  commit t ~cycle c.commit_results;
  for k = 0 to c.commit_ccs - 1 do
    Metrics.incr t.m_cc;
    if t.trace then
      Ring.push t.ring
        (Event.Cc_broadcast { cycle; fu = c.cc_fu.(k); value = c.cc_val.(k) })
  done;
  for fu = 0 to n - 1 do
    if c.was_live.(fu) then begin
      let ss = c.ss.(fu) in
      if not (Sync.equal ss c.ss_before.(fu)) then begin
        Metrics.incr t.m_ss;
        if t.trace then
          Ring.push t.ring
            (Event.Ss_transition
               { cycle; fu; to_done = Sync.equal ss Sync.Done })
      end;
      if c.next_pc.(c.lead.(fu)) < 0 then begin
        close_streak t ~cycle fu;
        Metrics.incr t.m_halts;
        if t.trace then Ring.push t.ring (Event.Halt { cycle; fu })
      end
    end;
    let r = resolution c ~n fu in
    if r >= 0 then
      let l = c.lead.(fu) in
      if c.next_pc.(l) >= 0 then
        resolve t ~cycle ~fu:r ~pc:c.old_pcs.(r) ~spinning:c.spun.(l)
          ~sync:(Cond.is_sync c.cond.(l))
  done;
  (match t.acct with
   | None -> ()
   | Some a ->
     for fu = 0 to n - 1 do
       Account.tally a ~fu c.cls.(fu)
     done);
  (match t.crit with None -> () | Some cp -> Critpath.on_cycle cp c);
  Metrics.incr t.m_cycles;
  Metrics.set_gauge t.g_streams c.live_streams;
  Metrics.observe t.h_sset_width c.live_streams;
  t.final_cycle <- cycle + 1

let on_drain t ~cycle ~results =
  commit t ~cycle results;
  match t.acct with
  | None -> ()
  | Some a ->
    for fu = 0 to t.n_fus - 1 do
      Account.tally a ~fu Halted
    done

let on_fault t ~cycle ~kind ~target =
  Metrics.incr t.m_faults;
  if t.trace then
    Ring.push t.ring (Event.Fault_fired { cycle; kind; target })

let on_watchdog t ~cycle ~quiet =
  if t.trace then
    Ring.push t.ring (Event.Watchdog_window { cycle; quiet })

let finish t ~cycle =
  if not t.finished then begin
    t.finished <- true;
    t.final_cycle <- cycle;
    for fu = 0 to t.n_fus - 1 do
      close_streak t ~cycle fu
    done
  end

(* ------------------------------------------------------------------ *)
(* Results *)

let events t = Ring.to_list t.ring
let dropped_events t = Ring.dropped t.ring

(* The ring tracks its own drop count; mirror it into the registry on
   read so [events_dropped] travels with every metrics export/merge. *)
let metrics t =
  Metrics.set_counter t.m_dropped (dropped_events t);
  t.registry
let profile t = t.prof
let account t = t.acct
let critpath t = t.crit
let partition_history t = List.rev t.parts_rev
let final_cycle t = t.final_cycle

let timeline t =
  Timeline.reconstruct ~final_cycle:t.final_cycle (partition_history t)

let barrier_waits t =
  Hashtbl.fold (fun pc v acc -> (pc, v) :: acc) t.barriers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fu_utilisation t ~fu =
  let live = t.m_fu_live.(fu).Metrics.c_value in
  if live = 0 then 0.
  else float_of_int t.m_fu_ops.(fu).Metrics.c_value /. float_of_int live

let metrics_json t =
  let open Ximd_json in
  Obj
    [ ("schema", String "ximd-metrics/1");
      ("final_cycle", Int t.final_cycle);
      ("events_dropped", Int (dropped_events t));
      ( "barriers",
        List
          (List.map
             (fun (pc, (entries, waited)) ->
               Obj
                 [ ("pc", Int pc);
                   ("entries", Int entries);
                   ("wait_cycles", Int waited) ])
             (barrier_waits t)) );
      ("metrics", Metrics.to_json (metrics t)) ]

let reset t =
  Ring.clear t.ring;
  Metrics.reset t.registry;
  (match t.prof with None -> () | Some p -> Profile.reset p);
  (match t.acct with None -> () | Some a -> Account.reset a);
  (match t.crit with None -> () | Some c -> Critpath.reset c);
  Array.fill t.spin_pc 0 t.n_fus (-1);
  Array.fill t.spin_start 0 t.n_fus 0;
  Array.fill t.spin_sync 0 t.n_fus false;
  Hashtbl.reset t.barriers;
  t.parts_rev <- [];
  t.last_part <- [];
  t.final_cycle <- 0;
  t.finished <- false

let pp_summary fmt t =
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "observability summary: %d cycles, %d events (%d \
                      dropped)@,"
    t.m_cycles.Metrics.c_value (Ring.length t.ring) (dropped_events t);
  for fu = 0 to t.n_fus - 1 do
    Format.fprintf fmt "  FU%-2d  %6d ops / %6d live cycles  (%.1f%%)@," fu
      t.m_fu_ops.(fu).Metrics.c_value t.m_fu_live.(fu).Metrics.c_value
      (100. *. fu_utilisation t ~fu)
  done;
  let h = t.h_sset_width in
  Format.fprintf fmt
    "  SSET width: mean %.2f  max %d@,"
    (Metrics.mean h) h.Metrics.h_max;
  let h = t.h_spin_streak in
  if h.Metrics.h_count > 0 then
    Format.fprintf fmt
      "  spin streaks: %d  mean %.1f  p99 %d  max %d cycles@,"
      h.Metrics.h_count (Metrics.mean h) (Metrics.quantile h 0.99)
      h.Metrics.h_max;
  (match barrier_waits t with
   | [] -> ()
   | waits ->
     Format.fprintf fmt "  barrier waits by address:@,";
     List.iter
       (fun (pc, (entries, waited)) ->
         Format.fprintf fmt "    %02x: %d entries, %d cycles waited@," pc
           entries waited)
       waits);
  Format.fprintf fmt "  partition changes: %d@,"
    t.m_partitions.Metrics.c_value;
  Format.pp_close_box fmt ()
