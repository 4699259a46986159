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

let default_ring_capacity = 1 lsl 16

(* The architectural register count, which sizes the critical-path
   register table. *)
let n_regs = 256

let create ?(ring_capacity = default_ring_capacity) ?(trace = true)
    ?(profile = true) ?(account = true) ?(critpath = false) ~n_fus ~code_len
    () =
  if n_fus < 1 || n_fus > 64 then
    invalid_arg "Sink.create: n_fus must be in [1, 64]";
  let registry = Metrics.create () in
  { ring = Ring.create ~capacity:ring_capacity ~dummy:Event.dummy;
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

let emit t e = if t.trace then Ring.push t.ring e

(* ------------------------------------------------------------------ *)
(* Hooks *)

let on_fetch t ~cycle ~fu ~pc =
  Metrics.incr t.m_fu_live.(fu);
  (match t.prof with None -> () | Some p -> Profile.sample p ~fu ~pc);
  emit t (Event.Fetch { cycle; fu; pc })

let on_data_op t ~fu = Metrics.incr t.m_fu_ops.(fu)

let on_commit t ~cycle ~results =
  Metrics.add t.m_commits results;
  Metrics.observe t.h_commit_batch results;
  emit t (Event.Commit { cycle; results })

let on_cc t ~cycle ~fu ~value =
  Metrics.incr t.m_cc;
  emit t (Event.Cc_broadcast { cycle; fu; value })

let on_ss t ~cycle ~fu ~to_done =
  Metrics.incr t.m_ss;
  emit t (Event.Ss_transition { cycle; fu; to_done })

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
      emit t (Event.Barrier_exit { cycle; fu; pc; waited })
    end
  end

let on_control t ~cycle ~fu ~pc ~spinning ~sync =
  if spinning then begin
    if t.spin_pc.(fu) <> pc then begin
      close_streak t ~cycle fu;
      t.spin_pc.(fu) <- pc;
      t.spin_start.(fu) <- cycle;
      t.spin_sync.(fu) <- sync;
      if sync then emit t (Event.Barrier_enter { cycle; fu; pc })
    end
  end
  else close_streak t ~cycle fu

let on_halt t ~cycle ~fu =
  close_streak t ~cycle fu;
  Metrics.incr t.m_halts;
  emit t (Event.Halt { cycle; fu })

let on_partition t ~cycle ~ssets =
  if ssets <> t.last_part then begin
    t.last_part <- ssets;
    t.parts_rev <- (cycle, ssets) :: t.parts_rev;
    Metrics.incr t.m_partitions;
    emit t (Event.Partition_change { cycle; ssets })
  end

let on_cycle_end t ~cycle ~live_streams =
  Metrics.incr t.m_cycles;
  Metrics.set_gauge t.g_streams live_streams;
  Metrics.observe t.h_sset_width live_streams;
  t.final_cycle <- cycle + 1

let on_fault t ~cycle ~kind ~target =
  Metrics.incr t.m_faults;
  emit t (Event.Fault_fired { cycle; kind; target })

let on_watchdog t ~cycle ~quiet =
  emit t (Event.Watchdog_window { cycle; quiet })

(* Per-slot cycle accounting (engine-classified; see {!Account}). *)
let on_slot t ~fu cls =
  match t.acct with None -> () | Some a -> Account.tally a ~fu cls

(* Critical-path hooks; each is one branch when critpath is off.  The
   engine additionally guards the decomposition work behind
   [wants_critpath]. *)
let wants_critpath t = t.crit <> None

let cp_bind_cc t ~fu ~j =
  match t.crit with None -> () | Some c -> Critpath.bind_cc c ~fu ~j

let cp_bind_ss t ~fu ~j =
  match t.crit with None -> () | Some c -> Critpath.bind_ss c ~fu ~j

let cp_bind_all t ~fu ~mask =
  match t.crit with None -> () | Some c -> Critpath.bind_all c ~fu ~mask

let cp_bind_any t ~fu ~done_mask =
  match t.crit with None -> () | Some c -> Critpath.bind_any c ~fu ~done_mask

let cp_issue t ~cycle ~fu ~pc ~r1 ~r2 ~w ~sets_cc ~latency =
  match t.crit with
  | None -> ()
  | Some c -> Critpath.issue c ~cycle ~fu ~pc ~r1 ~r2 ~w ~sets_cc ~latency

let cp_ss_mark t ~fu =
  match t.crit with None -> () | Some c -> Critpath.ss_mark c ~fu

let cp_end_cycle t =
  match t.crit with None -> () | Some c -> Critpath.end_cycle c

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
