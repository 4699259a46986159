open Ximd_isa
module Gen = QCheck2.Gen
module Program = Ximd_core.Program
module Config = Ximd_core.Config

(* One library of seed-deterministic program generators, shared by the
   property tests in [test/] and the differential fuzzer ([tools/fuzz],
   {!Diff}).  The primitives mirror the ISA bottom-up (registers,
   operands, parcels); the composite generators produce whole programs
   in the shapes the paper exercises: straight-line VLIW-style blocks,
   per-FU branching, SS/CC handshake pairs, barriers, memory traffic
   and multi-SSET fork/join.

   Determinism contract: every generator here derives all randomness
   from the [Random.State.t] QCheck hands it, so {!generate} — which
   seeds that state from [(seed, index)] — yields the same value on
   every run, machine and OCaml version that shares the qcheck-core
   release. *)

let generate ?(seed = 0) ~index g =
  Gen.generate1 ~rand:(Random.State.make [| seed; index |]) g

(* --- ISA primitives --------------------------------------------------- *)

let reg = Gen.map Reg.make (Gen.int_bound 255)

let operand =
  Gen.oneof
    [ Gen.map (fun r -> Operand.Reg r) reg;
      Gen.map
        (fun i -> Operand.Imm (Value.of_int i))
        (Gen.int_range (-1_000_000) 1_000_000) ]

let binop = Gen.oneofl Opcode.all_binops
let unop = Gen.oneofl Opcode.all_unops
let cmpop = Gen.oneofl Opcode.all_cmpops

let data =
  Gen.oneof
    [ Gen.return Parcel.Dnop;
      Gen.map4
        (fun op a b d -> Parcel.Dbin { op; a; b; d })
        binop operand operand reg;
      Gen.map3 (fun op a d -> Parcel.Dun { op; a; d }) unop operand reg;
      Gen.map3 (fun op a b -> Parcel.Dcmp { op; a; b }) cmpop operand operand;
      Gen.map3 (fun a b d -> Parcel.Dload { a; b; d }) operand operand reg;
      Gen.map2 (fun a b -> Parcel.Dstore { a; b }) operand operand;
      Gen.map2 (fun port d -> Parcel.Din { port; d }) operand reg;
      Gen.map2 (fun a port -> Parcel.Dout { a; port }) operand operand ]

let addr = Gen.int_bound 0xffff

let target =
  Gen.oneof
    [ Gen.map (fun a -> Control.Addr a) addr; Gen.return Control.Fallthrough ]

let cond =
  Gen.oneof
    [ Gen.return Cond.Always1;
      Gen.return Cond.Always2;
      Gen.map (fun j -> Cond.Cc j) (Gen.int_bound 15);
      Gen.map (fun j -> Cond.Ss j) (Gen.int_bound 15);
      Gen.map (fun m -> Cond.All_ss m) (Gen.int_range 1 0xffff);
      Gen.map (fun m -> Cond.Any_ss m) (Gen.int_range 1 0xffff) ]

let control =
  Gen.oneof
    [ Gen.return Control.Halt;
      Gen.map3
        (fun cond t1 t2 -> Control.Branch { cond; t1; t2 })
        cond target target ]

let sync = Gen.oneofl [ Sync.Busy; Sync.Done ]

let parcel =
  Gen.map3
    (fun data control sync -> Parcel.make ~sync data control)
    data control sync

(* --- Whole programs --------------------------------------------------- *)

(* Arbitrary (not necessarily validate-clean) programs with in-range
   branch targets: the encode/decode round-trip surface. *)
let program =
  let open Gen in
  int_range 1 12 >>= fun n_rows ->
  int_range 1 8 >>= fun n_fus ->
  let target = Gen.map (fun a -> Control.Addr a) (int_bound (n_rows - 1)) in
  let control =
    Gen.oneof
      [ return Control.Halt;
        map3
          (fun cond t1 t2 -> Control.Branch { cond; t1; t2 })
          cond target target ]
  in
  let parcel =
    map3
      (fun data control sync -> Parcel.make ~sync data control)
      data control sync
  in
  list_repeat n_rows (list_repeat n_fus parcel) >>= fun rows ->
  return (Program.of_rows ~n_fus rows)

(* Condition reading only state FUs of an [n_fus]-machine can produce. *)
let cond_for ~n_fus =
  let open Gen in
  oneof
    [ map (fun j -> Cond.Cc j) (int_bound (n_fus - 1));
      map (fun j -> Cond.Ss j) (int_bound (n_fus - 1));
      map (fun m -> Cond.All_ss m) (int_range 1 ((1 lsl n_fus) - 1));
      map (fun m -> Cond.Any_ss m) (int_range 1 ((1 lsl n_fus) - 1)) ]

(* Programs that satisfy [Program.validate] under the research
   sequencer: targets and condition FU references in range, no
   fall-through. *)
let valid_program =
  let open Gen in
  int_range 1 10 >>= fun n_rows ->
  int_range 1 8 >>= fun n_fus ->
  let addr = int_bound (n_rows - 1) in
  let control_v =
    oneof
      [ return Control.Halt;
        map (fun a -> Control.goto a) addr;
        map (fun a -> Control.goto2 a) addr;
        map3
          (fun cond t1 t2 -> Control.br cond t1 t2)
          (cond_for ~n_fus) addr addr ]
  in
  let parcel_v =
    map3
      (fun data control sync -> Parcel.make ~sync data control)
      data control_v sync
  in
  list_repeat n_rows (list_repeat n_fus parcel_v) >>= fun rows ->
  return (Program.of_rows ~n_fus rows)

(* --- Building blocks for terminating, semantically busy programs ------ *)

(* Data operations over a small register pool with modest immediates, so
   any semantic difference lands in a register someone else reads. *)
let small_reg = Gen.map Reg.make (Gen.int_bound 15)

let small_operand =
  Gen.oneof
    [ Gen.map Operand.imm (Gen.int_range (-50) 50);
      Gen.map (fun r -> Operand.Reg r) small_reg ]

let small_data =
  Gen.oneof
    [ Gen.return Parcel.Dnop;
      Gen.map4
        (fun op a b d -> Parcel.Dbin { op; a; b; d })
        (Gen.oneofl [ Opcode.Iadd; Opcode.Isub; Opcode.Imult; Opcode.Xor ])
        small_operand small_operand small_reg;
      Gen.map3
        (fun op a b -> Parcel.Dcmp { op; a; b })
        (Gen.oneofl [ Opcode.Lt; Opcode.Eq ])
        small_operand small_operand ]

(* Keep each row single-assignment: later duplicate writers become nops
   (multiple writes to one location in a cycle are undefined, §2.3). *)
let single_assignment datas =
  let used = Hashtbl.create 7 in
  List.map
    (fun d ->
      match Parcel.writes d with
      | Some reg when Hashtbl.mem used (Reg.index reg) -> Parcel.Dnop
      | Some reg ->
        Hashtbl.replace used (Reg.index reg) ();
        d
      | None -> d)
    datas

(* Control-consistent straight-line programs: forward gotos and a final
   halt, so termination is structural.  Returns the program and its FU
   count; runs identically on every sequencing model (the §3.1
   equivalence). *)
let forward_program =
  let open Gen in
  int_range 1 10 >>= fun n_rows ->
  int_range 1 8 >>= fun n_fus ->
  let rec rows addr acc =
    if addr >= n_rows then return (List.rev acc)
    else
      (if addr = n_rows - 1 then return Control.Halt
       else
         oneof
           [ return Control.Halt;
             map
               (fun a -> Control.goto a)
               (int_range (addr + 1) (n_rows - 1)) ])
      >>= fun control ->
      list_repeat n_fus small_data >>= fun datas ->
      let row =
        List.map (fun d -> Parcel.make d control) (single_assignment datas)
      in
      rows (addr + 1) (row :: acc)
  in
  rows 0 [] >>= fun rows ->
  return (Program.of_rows ~n_fus rows, n_fus)

(* Forward program with heavy memory traffic: loads and stores over a
   small window (plus the occasional wild address, to exercise the
   out-of-bounds hazard path identically on both simulators). *)
let memory_program =
  let open Gen in
  int_range 2 10 >>= fun n_rows ->
  int_range 1 8 >>= fun n_fus ->
  let mem_operand =
    oneof
      [ map Operand.imm (int_bound 31);
        map Operand.imm (oneofl [ -3; 70_000 ]);
        map (fun r -> Operand.Reg r) small_reg ]
  in
  let mem_data =
    oneof
      [ small_data;
        map3 (fun a b d -> Parcel.Dload { a; b; d }) mem_operand mem_operand
          small_reg;
        map2 (fun a b -> Parcel.Dstore { a; b }) small_operand mem_operand ]
  in
  let rec rows addr acc =
    if addr >= n_rows then return (List.rev acc)
    else
      (if addr = n_rows - 1 then return Control.Halt
       else
         oneof
           [ return Control.Halt;
             map
               (fun a -> Control.goto a)
               (int_range (addr + 1) (n_rows - 1)) ])
      >>= fun control ->
      list_repeat n_fus mem_data >>= fun datas ->
      let row =
        List.map (fun d -> Parcel.make d control) (single_assignment datas)
      in
      rows (addr + 1) (row :: acc)
  in
  rows 0 [] >>= fun rows ->
  return (Program.of_rows ~n_fus rows, n_fus)

(* An SS handshake pair (paper §3.3): FU 0 produces for a few rows and
   halts (its sync signal reads DONE from then on); every other FU spins
   on [SS_0 == DONE], then computes and halts.  Termination is
   structural: the producer always halts, so every consumer's spin
   exits. *)
let handshake_program =
  let open Gen in
  int_range 2 8 >>= fun n_fus ->
  int_range 1 4 >>= fun producer_rows ->
  int_range 1 3 >>= fun consumer_rows ->
  let n_rows = producer_rows + 1 + consumer_rows + 1 in
  let wait_row = producer_rows in
  list_repeat (n_rows * n_fus) small_data >>= fun datas ->
  let datas = Array.of_list datas in
  let parcel_at r fu =
    let data = datas.((r * n_fus) + fu) in
    if fu = 0 then
      (* producer: compute, then halt at the end of its block *)
      if r < producer_rows - 1 then Parcel.make data (Control.goto (r + 1))
      else if r = producer_rows - 1 then Parcel.make data Control.halt
      else Parcel.make Parcel.Dnop Control.halt
    else if r < wait_row then
      (* consumers idle forward to the wait row *)
      Parcel.make Parcel.Dnop (Control.goto (r + 1))
    else if r = wait_row then
      (* spin until the producer signals done *)
      Parcel.make Parcel.Dnop (Control.br (Cond.Ss 0) (r + 1) r)
    else if r < n_rows - 1 then Parcel.make data (Control.goto (r + 1))
    else Parcel.make data Control.halt
  in
  let rows =
    List.init n_rows (fun r -> List.init n_fus (parcel_at r))
  in
  let rows =
    List.map
      (fun row ->
        let datas =
          single_assignment (List.map (fun (p : Parcel.t) -> p.data) row)
        in
        List.map2
          (fun (p : Parcel.t) data -> { p with Parcel.data })
          row datas)
      rows
  in
  return (Program.of_rows ~n_fus rows, n_fus)

(* A barrier (paper §3.3): every FU runs a block of its own length, then
   spins on [∏ (SS_j == DONE)] over the full mask, driving its own DONE
   from the spin row's sync field; when the last FU arrives all exit
   together, compute one more row and halt.  Uneven arrival exercises
   partition churn. *)
let barrier_program =
  let open Gen in
  int_range 2 8 >>= fun n_fus ->
  list_repeat n_fus (int_range 0 3) >>= fun leads ->
  let leads = Array.of_list leads in
  let max_lead = Array.fold_left max 0 leads in
  let barrier = max_lead in
  let n_rows = barrier + 2 in
  list_repeat (n_rows * n_fus) small_data >>= fun datas ->
  let datas = Array.of_list datas in
  let mask = Cond.full_mask n_fus in
  let parcel_at r fu =
    let data = datas.((r * n_fus) + fu) in
    if r < barrier then
      if r < leads.(fu) then Parcel.make data (Control.goto (r + 1))
      else
        (* arrived early: wait at the barrier row, already signalling *)
        Parcel.make ~sync:Sync.Done Parcel.Dnop
          (Control.br (Cond.All_ss mask) (r + 1) r)
    else if r = barrier then
      Parcel.make ~sync:Sync.Done Parcel.Dnop
        (Control.br (Cond.All_ss mask) (r + 1) r)
    else Parcel.make data Control.halt
  in
  let rows = List.init n_rows (fun r -> List.init n_fus (parcel_at r)) in
  let rows =
    List.map
      (fun row ->
        let datas =
          single_assignment (List.map (fun (p : Parcel.t) -> p.data) row)
        in
        List.map2
          (fun (p : Parcel.t) data -> { p with Parcel.data })
          row datas)
      rows
  in
  return (Program.of_rows ~n_fus rows, n_fus)

(* Multi-SSET fork/join: the FUs fork into two groups running different
   block lengths (dynamic partition of two SSETs), then re-join on a
   full barrier and halt.  CC-conditional branches inside each group add
   squash-on-branch traffic. *)
let fork_join_program =
  let open Gen in
  int_range 2 8 >>= fun n_fus ->
  int_range 1 (n_fus - 1) >>= fun split ->
  int_range 1 3 >>= fun len_a ->
  int_range 1 3 >>= fun len_b ->
  let body = max len_a len_b in
  let n_rows = 1 + body + 2 in
  let barrier = 1 + body in
  list_repeat (n_rows * n_fus) small_data >>= fun datas ->
  let datas = Array.of_list datas in
  let mask = Cond.full_mask n_fus in
  let parcel_at r fu =
    let data = datas.((r * n_fus) + fu) in
    let len = if fu < split then len_a else len_b in
    if r = 0 then
      (* fork: group A falls to row 1, group B jumps by its own branch *)
      Parcel.make data (Control.goto 1)
    else if r <= body then
      if r <= len then
        let next = if r = len then barrier else r + 1 in
        Parcel.make data (Control.goto next)
      else Parcel.make Parcel.Dnop (Control.goto barrier)
    else if r = barrier then
      Parcel.make ~sync:Sync.Done Parcel.Dnop
        (Control.br (Cond.All_ss mask) (r + 1) r)
    else Parcel.make data Control.halt
  in
  let rows = List.init n_rows (fun r -> List.init n_fus (parcel_at r)) in
  let rows =
    List.map
      (fun row ->
        let datas =
          single_assignment (List.map (fun (p : Parcel.t) -> p.data) row)
        in
        List.map2
          (fun (p : Parcel.t) data -> { p with Parcel.data })
          row datas)
      rows
  in
  return (Program.of_rows ~n_fus rows, n_fus)

(* VLIW-shaped code on an XIMD (paper §2, Figure 3): every row gives all
   its parcels one control field and one sync value, so all FUs start at
   one PC and stay there as one SSET.  The branches test condition
   codes that a compare in an earlier row may or may not have set, so
   every sequencer of the group can meet an undefined CC at once; some
   targets fall through, so the group can run off the end of the
   program under the prototype sequencer (which this shape needs), and a
   target equal to its own row spins the whole group. *)
let lockstep_program =
  let open Gen in
  int_range 1 6 >>= fun n_rows ->
  int_range 1 8 >>= fun n_fus ->
  let target =
    frequency
      [ (3, map (fun a -> Control.Addr a) (int_bound (n_rows - 1)));
        (1, return Control.Fallthrough) ]
  in
  let control =
    frequency
      [ (1, return Control.Halt);
        (2, map (fun t -> Control.Branch { cond = Cond.Always1; t1 = t; t2 = t }) target);
        ( 5,
          map3
            (fun j t1 t2 -> Control.Branch { cond = Cond.Cc j; t1; t2 })
            (int_bound (n_fus - 1)) target target ) ]
  in
  let row =
    control >>= fun control ->
    sync >>= fun sync ->
    list_repeat n_fus small_data >>= fun datas ->
    return
      (List.map (fun d -> Parcel.make ~sync d control) (single_assignment datas))
  in
  list_repeat n_rows row >>= fun rows ->
  return (Program.of_rows ~n_fus rows, n_fus)

(* --- Fuzz cases ------------------------------------------------------- *)

type case = { program : Program.t; config : Config.t }

let falls_through program =
  let fallthrough = function
    | Control.Fallthrough -> true
    | Control.Addr _ -> false
  in
  let rec row addr =
    addr < Program.length program
    && (Array.exists
          (fun (p : Parcel.t) -> List.exists fallthrough (Control.targets p.control))
          (Program.row program addr)
       || row (addr + 1))
  in
  row 0

let case =
  let open Gen in
  (* Weighted scenario mix: the general branchy shape dominates (it
     subsumes deadlocks, undefined CCs and fell-off-end paths); the
     structured shapes keep handshake/barrier/fork-join, memory and
     lockstep coverage from drowning in noise. *)
  frequency
    [ (3, map (fun p -> (p, Program.n_fus p)) valid_program);
      (2, forward_program);
      (2, memory_program);
      (1, handshake_program);
      (1, barrier_program);
      (1, fork_join_program);
      (1, lockstep_program) ]
  >>= fun (program, n_fus) ->
  oneofl [ 1; 1; 2; 3 ] >>= fun result_latency ->
  frequency
    [ (4, return (Ximd_machine.Memory.Shared, 65536));
      (2, return (Ximd_machine.Memory.Shared, 64));
      (1, return (Ximd_machine.Memory.Distributed { n_fus }, 64 * n_fus)) ]
  >>= fun (mem_organisation, mem_words) ->
  let sequencer =
    if falls_through program then Config.Prototype else Config.Research
  in
  let config =
    Config.make ~n_fus ~mem_words ~mem_organisation ~n_ports:4
      ~hazard_policy:Ximd_machine.Hazard.Record ~max_cycles:300
      ~result_latency ~sequencer ()
  in
  return { program; config }
