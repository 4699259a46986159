(* Per-layer probes, taken from outside the library: every number here
   comes from timing calls into a layer's public functions.  Nothing in
   lib/ is instrumented.

   The engine breakdown follows SLAP's rule (arXiv:2102.13301): the
   parts must add up to the measured whole.  The whole is every
   [Engine.step] of a real run, timed and its minor words counted.  The
   parts come from a second run of the same program: before each of its
   steps, the public calls that step makes are timed phase by phase on
   a twin session at the same cycle —
   - fetch: [State.all_halted], then per stream [Engine.stream_bounds]
     and [Program.row];
   - cond: per branching stream [Engine.stream_bounds] and
     [Exec.eval_cond];
   - exec: [Exec.exec_data] per issuing FU;
   - commit: [Exec.commit_cycle];
   - control: per live stream [Engine.stream_bounds] and
     [Control.resolve];
   - partition, on the state the step left: per FU
     [Control.normalised_signature] (xsim) or [Control.goto] (t500),
     [Partition.of_signatures] when the step replaced the partition, and
     [Partition.count_live]; vsim only calls [State.all_halted].
   The probes only read the real state.  The twin's data path advances
   through its own [exec_data] and [commit_cycle] calls; its PCs, sync
   signals and halts, which the step writes itself, are copied from the
   real state before each cycle.

   What the calls do not cover is the step's own code: its writes to
   the state and its scratch buffers, loop control, hook tests.  Its
   minor words are reported as [own_words] (step words minus the phase
   words, so the parts add up exactly); its time is the part of the
   step [explained_frac] leaves out.

   Three checks say whether this breakdown still describes the engine:
   after every cycle the twin's registers and condition codes equal the
   real ones and every stream's resolved PC is the one the step
   installed; no cycle's phase calls allocate more words than its step;
   and the calls explain at least [min_explained] of the step time.  A
   change to what [Engine.step] calls breaks them; that fails
   [ledger.exe trace], not the benchmark's correctness. *)

open Ximd_core
open Ximd_isa

let phases = [ "fetch"; "cond"; "exec"; "commit"; "control"; "partition" ]
let n_phases = List.length phases
(* The calls explained 0.82-0.90 of a step on every workload and model
   on a 2-vCPU VM; the rest is the step's own code. *)
let min_explained = 0.75

(* Raw duration (ns) and minor words of one call of [f]; [f] is
   allocated by the caller, outside the window. *)
let window f =
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  f ();
  let t1 = Measure.now_ns () in
  let w1 = Gc.minor_words () in
  (Int64.to_float (Int64.sub t1 t0), w1 -. w0)

(* What the phase probes of one cycle read and leave for the next. *)
type probe = {
  model : Engine.model;
  n : int;
  n_streams : int;
  parcels : Parcel.t array;  (* per FU: the fetched parcel *)
  issuing : bool array;      (* per FU *)
  ctrl : Parcel.t array;     (* per stream: the leader's parcel *)
  live : bool array;         (* per stream *)
  taken : bool array;        (* per stream *)
  next : int array;          (* per stream: resolved PC, or -1 *)
  old_pcs : int array;       (* per FU: PCs at the top of the cycle *)
  sigs : Control.t array;    (* per FU *)
  halted_row : Parcel.t array;
}

let probe model n =
  let s = Engine.n_streams model ~n in
  { model; n; n_streams = s;
    parcels = Array.make n Parcel.halted; issuing = Array.make n false;
    ctrl = Array.make s Parcel.halted; live = Array.make s false;
    taken = Array.make s false; next = Array.make s (-1);
    old_pcs = Array.make n 0; sigs = Array.make n Control.Halt;
    halted_row = Array.make n Parcel.halted }

let fetch p (st : State.t) =
  ignore (State.all_halted st);
  let program = st.program in
  let len = Program.length program in
  for k = 0 to p.n_streams - 1 do
    let leader, last = Engine.stream_bounds p.model ~n:p.n k in
    let live =
      match p.model with
      | Engine.Global -> true
      | Engine.Per_fu | Engine.Banked -> not st.halted.(leader)
    in
    p.live.(k) <- live;
    let pc = st.pcs.(leader) in
    let row = if live && pc >= 0 && pc < len then Program.row program pc else p.halted_row in
    p.ctrl.(k) <- row.(leader);
    for fu = leader to last do
      let issuing = live && not st.halted.(fu) in
      p.issuing.(fu) <- issuing;
      p.parcels.(fu) <- (if issuing then row.(fu) else Parcel.halted)
    done
  done

let cond p (st : State.t) =
  for k = 0 to p.n_streams - 1 do
    p.taken.(k) <-
      p.live.(k)
      &&
      match p.ctrl.(k).control with
      | Control.Halt -> false
      | Control.Branch { cond; _ } ->
        let leader, _ = Engine.stream_bounds p.model ~n:p.n k in
        Exec.eval_cond st ~fu:leader cond
  done

let exec p (st : State.t) =
  for fu = 0 to p.n - 1 do
    if p.issuing.(fu) then Exec.exec_data st ~fu p.parcels.(fu).data
  done

let control p (st : State.t) =
  for k = 0 to p.n_streams - 1 do
    p.next.(k) <- -1;
    if p.live.(k) then begin
      let leader, _ = Engine.stream_bounds p.model ~n:p.n k in
      match p.ctrl.(k).control with
      | Control.Halt -> ()
      | Control.Branch _ as c -> (
        match Control.resolve c ~pc:st.pcs.(leader) ~taken:p.taken.(k) with
        | Some next -> p.next.(k) <- next
        | None -> ())
    end
  done

(* On the state the step left; [replaced] says whether the step built a
   new partition. *)
let partition p ~replaced (st : State.t) =
  match p.model with
  | Engine.Global -> ignore (State.all_halted st)
  | Engine.Per_fu | Engine.Banked ->
    let len = Program.length st.program in
    let half = p.n / 2 in
    for fu = 0 to p.n - 1 do
      p.sigs.(fu) <-
        (match p.model with
         | Engine.Per_fu ->
           if p.issuing.(fu) then
             Control.normalised_signature p.parcels.(fu).control ~pc:p.old_pcs.(fu)
           else Control.Halt
         | Engine.Banked | Engine.Global ->
           let leader = if fu < half then 0 else half in
           let pc = st.pcs.(leader) in
           if st.halted.(leader) || pc < 0 || pc >= len then Control.Halt
           else Control.goto pc)
    done;
    if replaced then ignore (Partition.of_signatures p.sigs);
    ignore (Partition.count_live st.partition ~halted:st.halted)

(* The control state [Engine.step] writes itself, copied to the twin. *)
let sync_twin (twin : State.t) (st : State.t) =
  let n = State.n_fus st in
  twin.cycle <- st.cycle;
  Array.blit st.pcs 0 twin.pcs 0 n;
  Array.blit st.sss 0 twin.sss 0 n;
  Array.blit st.halted 0 twin.halted 0 n

(* Whether the probes made the calls the step made: the same registers,
   condition codes and next PCs. *)
let agrees p (twin : State.t) (st : State.t) =
  let streams_ok = ref true in
  for k = 0 to p.n_streams - 1 do
    if p.next.(k) >= 0 then begin
      let leader, _ = Engine.stream_bounds p.model ~n:p.n k in
      if st.pcs.(leader) <> p.next.(k) then streams_ok := false
    end
  done;
  !streams_ok
  && twin.ccs = st.ccs
  && Array.for_all2 Value.equal
       (Ximd_machine.Regfile.dump twin.regs)
       (Ximd_machine.Regfile.dump st.regs)

let memory (s : State.t) =
  Ximd_machine.Memory.(dump_block s.mem ~addr:0 ~len:(words s.mem))

type engine_acc = {
  mutable cycles : int;
  mutable step_ns : float;       (* pass 1 *)
  mutable probed_step_ns : float;  (* pass 2, beside the phase probes *)
  mutable step_words : float;
  mutable changes : int;  (* steps that replaced the partition *)
  phase_ns : float array;
  phase_words : float array;
  mutable plain_s : float;
  mutable traced_s : float;
}

let engine_acc () =
  { cycles = 0;
    step_ns = 0.0;
    probed_step_ns = 0.0;
    step_words = 0.0;
    changes = 0;
    phase_ns = Array.make n_phases 0.0;
    phase_words = Array.make n_phases 0.0;
    plain_s = 0.0;
    traced_s = 0.0 }

(* Traces one target in two passes over the same run, each repeated
   until it has stepped at least [min_cycles] cycles, so short programs
   are timed warm too:
   1. the real run, timing every [Engine.step];
   2. the real run again with the phase probes, one window per phase
      and one for the step, each cycle's words checked on the first
      round.
   Each cycle of both passes also times an empty window: what the clock
   itself costs there, subtracted from every window of the pass. *)
let trace_target acc ~min_cycles ~tally ~breakdown (t : Instance.target) =
  let v = t.variant in
  let name = t.label ^ "/" ^ Instance.model_name t.model in
  let session () = Session.create ~config:v.config ~model:t.model v.program in
  let real = session () in
  let plain =
    Measure.median
      (List.init 3 (fun _ -> snd (Measure.time (fun () -> Session.run ~setup:v.setup real))))
  in
  let st = Session.state real in
  let cycles = st.cycle in
  let rounds = max 1 (min_cycles / max 1 cycles) in
  let per_run x = x /. float_of_int rounds in
  let fuel = v.config.max_cycles in
  let running (s : State.t) = (not (State.all_halted s)) && s.cycle < fuel in
  let again (s : State.t) =
    State.reset s;
    v.setup s
  in
  let step () = Engine.step t.model st in
  (* pass 1 *)
  let step_ns = ref 0.0 and empty_ns = ref 0.0 and changes = ref 0 in
  let t_loop = Measure.now_ns () in
  for _ = 1 to rounds do
    again st;
    while running st do
      let partition = st.partition in
      step_ns := !step_ns +. fst (window step);
      empty_ns := !empty_ns +. fst (window ignore);
      if st.partition != partition then incr changes
    done
  done;
  let traced = Measure.elapsed_s t_loop /. float_of_int rounds in
  Measure.check tally
    (st.cycle = cycles && Result.is_ok (v.check st))
    (fun () -> name ^ ": traced run differs");
  acc.step_ns <- acc.step_ns +. per_run (!step_ns -. !empty_ns);
  (* pass 2 *)
  let twin = Session.state (session ()) in
  let p = probe t.model (State.n_fus st) in
  let phase_ns = Array.make n_phases 0.0 and phase_words = Array.make n_phases 0.0 in
  let phase i f =
    let ns, words = window f in
    phase_ns.(i) <- phase_ns.(i) +. ns;
    phase_words.(i) <- phase_words.(i) +. words;
    words
  in
  let on_twin f () = f p twin in
  let calls =
    [| on_twin fetch; on_twin cond; on_twin exec; (fun () -> Exec.commit_cycle twin);
       on_twin control |]
  in
  let replaced = ref false in
  let after_step () = partition p ~replaced:!replaced st in
  let step_ns = ref 0.0 and step_words = ref 0.0 and empty_ns = ref 0.0 in
  for round = 1 to rounds do
    again st;
    again twin;
    while running st do
      let c = st.cycle in
      sync_twin twin st;
      Array.blit st.pcs 0 p.old_pcs 0 p.n;
      let words = ref 0.0 in
      Array.iteri (fun i f -> words := !words +. phase i f) calls;
      let before = st.partition in
      let ns, sw = window step in
      replaced := st.partition != before;
      words := !words +. phase 5 after_step;
      empty_ns := !empty_ns +. fst (window ignore);
      step_ns := !step_ns +. ns;
      step_words := !step_words +. sw;
      if round = 1 then begin
        Measure.check breakdown (agrees p twin st) (fun () ->
          Printf.sprintf "%s cycle %d: the phase calls disagree with Engine.step" name c);
        Measure.check breakdown (!words <= sw) (fun () ->
          Printf.sprintf "%s cycle %d: the phase calls allocate %.0f words, the step %.0f" name c
            !words sw)
      end
    done;
    if round = 1 then
      Measure.check breakdown (Array.for_all2 Value.equal (memory twin) (memory st)) (fun () ->
        name ^ ": the twin's memory differs from the real run's")
  done;
  acc.cycles <- acc.cycles + cycles;
  acc.probed_step_ns <- acc.probed_step_ns +. per_run (!step_ns -. !empty_ns);
  acc.step_words <- acc.step_words +. per_run !step_words;
  acc.changes <- acc.changes + (!changes / rounds);
  Array.iteri
    (fun i x -> acc.phase_ns.(i) <- acc.phase_ns.(i) +. per_run (x -. !empty_ns))
    phase_ns;
  Array.iteri (fun i x -> acc.phase_words.(i) <- acc.phase_words.(i) +. per_run x) phase_words;
  acc.plain_s <- acc.plain_s +. plain;
  acc.traced_s <- acc.traced_s +. traced

(* Cycles each trace pass steps at least, repeating short programs. *)
let min_cycles = 20_000

let engine_metrics ~strict ~tally ~breakdown targets =
  let accs = List.map (fun m -> (m, engine_acc ())) Instance.models in
  let min_cycles = if strict then min_cycles else 0 in
  List.iter
    (fun (t : Instance.target) ->
      trace_target (List.assoc t.model accs) ~min_cycles ~tally ~breakdown t)
    targets;
  let metrics =
    List.concat_map
      (fun (m, a) ->
        let p = "engine." ^ Instance.model_name m ^ "." in
        if a.cycles = 0 then []
        else begin
          let w = float_of_int a.cycles in
          let phase_ns = Array.map (fun x -> x /. w) a.phase_ns in
          let phase_words = Array.map (fun x -> x /. w) a.phase_words in
          let sum = Array.fold_left ( +. ) 0.0 in
          let explained = sum a.phase_ns /. a.probed_step_ns in
          if strict then
            Measure.check breakdown (explained >= min_explained) (fun () ->
              Printf.sprintf "%sexplained_frac %.3f < %.2f" p explained min_explained);
          let step_words = a.step_words /. w in
          (Measure.exact (p ^ "step_ns") "ns" (a.step_ns /. w)
          :: List.mapi (fun i ph -> Measure.exact (p ^ ph ^ "_ns") "ns" phase_ns.(i)) phases)
          @ (Measure.exact (p ^ "step_words") "words" step_words
            :: List.mapi (fun i ph -> Measure.exact (p ^ ph ^ "_words") "words" phase_words.(i)) phases)
          (* [+. 0.0] turns a rounding -0 into 0 *)
          @ [ Measure.exact (p ^ "own_words") "words" (((a.step_words -. sum a.phase_words) /. w) +. 0.0);
              Measure.exact (p ^ "explained_frac") "ratio" explained;
              Measure.exact (p ^ "partition_change_frac") "ratio" (float_of_int a.changes /. w) ]
        end)
      accs
  in
  let plain = List.fold_left (fun s (_, a) -> s +. a.plain_s) 0.0 accs in
  let traced = List.fold_left (fun s (_, a) -> s +. a.traced_s) 0.0 accs in
  (metrics, traced /. plain)

(* ------------------------------------------------------------------ *)
(* Session build vs reset vs setup vs run *)

let session_metrics targets =
  let per_target (t : Instance.target) =
    let v = t.variant in
    let create () = Session.create ~config:v.config ~model:t.model v.program in
    let s = create () in
    let st = Session.state s in
    let timed f = snd (Measure.time f) *. 1e6 in
    let samples =
      List.init 3 (fun _ ->
        let c = timed (fun () -> ignore (create ())) in
        let r = timed (fun () -> State.reset st) in
        let u = timed (fun () -> v.setup st) in
        let run = timed (fun () -> ignore (Session.run ~setup:v.setup s)) in
        [| c; r; u; run |])
    in
    Array.init 4 (fun i -> Measure.median (List.map (fun a -> a.(i)) samples))
  in
  let per = List.map per_target targets in
  let mean i = List.fold_left (fun s a -> s +. a.(i)) 0.0 per /. float_of_int (List.length per) in
  List.mapi
    (fun i name -> Measure.exact ("session." ^ name ^ "_us") "us" (mean i))
    [ "create"; "reset"; "setup"; "run" ]

(* ------------------------------------------------------------------ *)
(* Attachment costs: attached run / bare run on one reused xsim session *)

let attachments =
  [ "sink_full"; "sink_lean"; "account"; "critpath"; "tracer"; "watchdog"; "fault_armed" ]

(* Critical-path analysis keeps a node per committed op, so the probe
   program is the longest xsim target under this many cycles. *)
let obs_cycle_cap = 20_000

let obs_target targets =
  let xsim =
    List.filter_map
      (fun (t : Instance.target) ->
        if t.model = Engine.Per_fu then
          let v = t.variant in
          let s = Session.create ~config:v.config ~model:t.model v.program in
          ignore (Session.run ~setup:v.setup s);
          Some ((Session.state s).cycle, t)
        else None)
      targets
  in
  let under = List.filter (fun (c, _) -> c <= obs_cycle_cap) xsim in
  let pick = List.fold_left (fun best x -> if fst x > fst best then x else best) in
  match (under, xsim) with
  | x :: rest, _ -> snd (pick x rest)
  | [], x :: rest -> snd (List.fold_left (fun best y -> if fst y < fst best then y else best) x rest)
  | [], [] -> invalid_arg "ledger: workload has no xsim target"

let obs_metrics tally targets =
  let t = obs_target targets in
  let v = t.variant in
  let n_fus = v.config.n_fus and code_len = Program.length v.program in
  let session ?obs ?faults () =
    Session.create ~config:v.config ?obs ?faults ~model:Engine.Per_fu v.program
  in
  let sink ?trace ?profile ?account ?critpath () =
    Ximd_obs.Sink.create ?trace ?profile ?account ?critpath ~n_fus ~code_len ()
  in
  let bare = session () in
  let on s () = Session.run ~setup:v.setup s in
  let watchdog = Watchdog.create () in
  let runs =
    [ ("bare", on bare);
      ("sink_full", on (session ~obs:(sink ()) ()));
      ("sink_lean", on (session ~obs:(sink ~trace:false ~profile:false ~account:false ()) ()));
      ("account", on (session ~obs:(sink ~trace:false ~profile:false ()) ()));
      ( "critpath",
        on (session ~obs:(sink ~trace:false ~profile:false ~account:false ~critpath:true ()) ()) );
      ( "tracer",
        fun () -> Session.run ~tracer:(Tracer.create ~limit:64 ()) ~setup:v.setup bare );
      ( "watchdog",
        fun () ->
          Watchdog.reset watchdog;
          Session.run ~watchdog ~setup:v.setup bare );
      ( "fault_armed",
        let silent =
          { Ximd_machine.Fault.at = 1 lsl 40; kind = Ximd_machine.Fault.Flip_ss; target = 0 }
        in
        on (session ~faults:(Ximd_machine.Fault.create [ silent ]) ()) ) ]
  in
  let expected = Instance.halted_cycles (on bare ()) in
  let times = List.map (fun (name, _) -> (name, ref [])) runs in
  for _ = 1 to 5 do
    List.iter
      (fun (name, run) ->
        let outcome, dt = Measure.time run in
        Measure.check tally (Instance.halted_cycles outcome = expected) (fun () ->
          Printf.sprintf "obs.%s changed the outcome of %s" name t.label);
        let r = List.assoc name times in
        r := dt :: !r)
      runs
  done;
  let med name = Measure.median !(List.assoc name times) in
  List.map
    (fun name -> Measure.exact ("obs." ^ name ^ ".overhead") "ratio" (med name /. med "bare"))
    attachments

(* ------------------------------------------------------------------ *)
(* Assembler: parse the source text of every distinct target program *)

let asm_metrics tally targets =
  let programs =
    List.fold_left
      (fun acc (t : Instance.target) ->
        let p = t.variant.program in
        if List.exists (Program.equal_code p) acc then acc else p :: acc)
      [] targets
  in
  let per p =
    let src = Ximd_asm.Source.to_source p in
    Measure.median
      (List.init 5 (fun _ ->
         let parsed, dt = Measure.time (fun () -> Ximd_asm.Source.parse src) in
         Measure.check tally
           (match parsed with Ok q -> Program.equal_code p q | Error _ -> false)
           (fun () -> "asm source round trip failed");
         dt *. 1e6))
  in
  let times = List.map per programs in
  [ Measure.exact "asm.parse_us" "us"
      (List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)) ]

(* The layers every workload exercises through its engine targets.
   Breakdown checks go to [breakdown], output checks to [tally].
   [strict] enforces the 90% explained-time floor, which needs the
   benchmark's run lengths to be meaningful. *)
let common ~strict ~tally ~breakdown targets =
  let engine, engine_overhead = engine_metrics ~strict ~tally ~breakdown targets in
  ( engine @ session_metrics targets @ obs_metrics tally targets @ asm_metrics tally targets,
    engine_overhead )
