(* Drive a program's data path one cycle at a time through [State] and
   [Exec], the calls [Engine.step] makes, so a test can look at the
   machine between a cycle's issue and its commit; or run it whole
   through [Session]. *)

module Core = Ximd_core
module M = Ximd_machine

let parse src =
  match Ximd_asm.Source.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e

let config_of ?(policy = M.Hazard.Record) ?result_latency ?mem_words
    ?mem_organisation program =
  Core.Config.make ~n_fus:(Core.Program.n_fus program) ~hazard_policy:policy
    ?result_latency ?mem_words ?mem_organisation ()

(* A state for the assembly [src], recording hazards unless [policy]
   says otherwise. *)
let state_of ?policy ?result_latency ?mem_words ?mem_organisation ?faults src
    =
  let program = parse src in
  Core.State.create
    ~config:
      (config_of ?policy ?result_latency ?mem_words ?mem_organisation program)
    ?faults program

(* Issue row [row] on every FU: the faults due this cycle fire, then
   each FU's data operation runs and queues its result. *)
let issue (state : Core.State.t) row =
  (match state.faults with
   | Some f -> Core.Exec.apply_faults state f
   | None -> ());
  let n = Core.State.n_fus state and s = state.scratch in
  for fu = 0 to n - 1 do
    s.record.was_live.(fu) <- true;
    s.slots.(fu) <- (row * n) + fu
  done;
  Core.Exec.exec_cycle state (Core.Program.image state.program)

(* End the cycle: land what is due, then move to the next cycle. *)
let commit (state : Core.State.t) =
  Core.Exec.commit_cycle state;
  state.cycle <- state.cycle + 1

(* Run [src] to completion under per-FU sequencers. *)
let run ?policy ?result_latency ?mem_words ?mem_organisation ?faults src =
  let program = parse src in
  let session =
    Core.Session.create
      ~config:
        (config_of ?policy ?result_latency ?mem_words ?mem_organisation
           program)
      ?faults ~model:Core.Engine.Per_fu program
  in
  let outcome = Core.Session.run session in
  (outcome, Core.Session.state session)

(* The hazard log as (cycle, message) pairs. *)
let hazards state =
  List.map
    (fun (e : M.Hazard.event) -> (e.cycle, M.Hazard.to_string e.hazard))
    (Core.State.hazards state)

let check_hazards msg expected state =
  Alcotest.(check (list (pair int string))) msg expected (hazards state)

let check_reg msg state i expected =
  Alcotest.(check int) msg expected
    (Ximd_isa.Value.to_int (Core.State.reg state i))

let check_mem msg state addr expected =
  Alcotest.(check int) msg expected
    (Ximd_isa.Value.to_int (Core.State.mem_get state addr))
