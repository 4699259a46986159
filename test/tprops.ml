(* Property-based tests (qcheck, registered as alcotest cases). *)

open Ximd_isa
module C = Ximd_compiler
module Gen = QCheck2.Gen

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Generators -------------------------------------------------------- *)

(* The ISA and whole-program generators live in lib/gen (Proggen),
   shared with the differential fuzzer; the aliases below keep this
   module and its dependants (taccount, tobs, tcritpath, tsession,
   twatchdog) on the same distributions the fuzzer exercises. *)

let gen_parcel = Ximd_gen.Proggen.parcel
let gen_program = Ximd_gen.Proggen.program
let gen_valid_program = Ximd_gen.Proggen.valid_program
let gen_forward_program = Ximd_gen.Proggen.forward_program

(* --- Encode/decode ------------------------------------------------------ *)

let prop_parcel_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"encode/decode parcel roundtrip"
    gen_parcel (fun p ->
      match Encode.decode (Encode.encode p) with
      | Ok p' -> Parcel.equal p p'
      | Error _ -> false)

let prop_parcel_bytes_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"parcel bytes roundtrip" gen_parcel
    (fun p ->
      let bytes = Encode.to_bytes (Encode.encode p) in
      match Encode.of_bytes bytes with
      | Ok words -> (
        match Encode.decode words with
        | Ok p' -> Parcel.equal p p'
        | Error _ -> false)
      | Error _ -> false)

let prop_program_image_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"program image roundtrip" gen_program
    (fun p ->
      match Ximd_core.Program.decode (Ximd_core.Program.encode p) with
      | Ok p' -> Ximd_core.Program.equal_code p p'
      | Error _ -> false)

(* Programs that satisfy Program.validate (targets and condition FUs in
   range, no fall-through, unconditional branches with one target) also
   survive a disassemble/assemble round trip. *)
let prop_asm_source_roundtrip =
  QCheck2.Test.make ~count:150 ~name:"disassemble/assemble roundtrip"
    gen_valid_program (fun p ->
      match Ximd_asm.Source.parse (Ximd_asm.Source.to_source p) with
      | Ok p' -> Ximd_core.Program.equal_code p p'
      | Error _ -> false)

(* Random control-consistent straight-line programs (forward gotos and
   a final halt — guaranteed termination): the general XIMD simulator
   and the VLIW baseline must agree on cycles and final register
   state (the §3.1 equivalence). *)
let prop_xsim_equals_vsim =
  QCheck2.Test.make ~count:200 ~name:"xsim = vsim on VLIW-style programs"
    gen_forward_program (fun (program, n_fus) ->
      let run model =
        let config = Ximd_core.Config.make ~n_fus ~max_cycles:1000 () in
        let session = Ximd_core.Session.create ~config ~model program in
        match Ximd_core.Session.run session with
        | Ximd_core.Run.Halted { cycles } ->
          Some
            ( cycles,
              Ximd_machine.Regfile.dump (Ximd_core.Session.state session).regs
            )
        | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
          None
      in
      match
        (run Ximd_core.Engine.Per_fu, run Ximd_core.Engine.Global)
      with
      | Some (xc, xregs), Some (vc, vregs) ->
        xc = vc && Array.for_all2 Value.equal xregs vregs
      | _ -> false)

(* --- Partition ----------------------------------------------------------- *)

let gen_partition =
  let open Gen in
  int_range 1 10 >>= fun n ->
  (* Random group assignment, then normalise through of_ssets. *)
  list_repeat n (int_bound (n - 1)) >>= fun colours ->
  let groups = Hashtbl.create 7 in
  List.iteri
    (fun fu colour ->
      Hashtbl.replace groups colour
        (fu :: (try Hashtbl.find groups colour with Not_found -> [])))
    colours;
  let ssets = Hashtbl.fold (fun _ fus acc -> fus :: acc) groups [] in
  return (Ximd_core.Partition.of_ssets ssets)

let prop_partition_string_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"partition notation roundtrip"
    gen_partition (fun p ->
      match Ximd_core.Partition.of_string (Ximd_core.Partition.to_string p)
      with
      | Ok p' -> Ximd_core.Partition.equal p p'
      | Error _ -> false)

let prop_partition_of_signatures_sound =
  (* FUs in one SSET have equal signatures; FUs in different SSETs have
     different ones. *)
  let gen =
    let open Gen in
    int_range 1 8 >>= fun n ->
    list_repeat n (int_bound 3) >>= fun choice ->
    return
      (Array.of_list
         (List.map
            (fun c ->
              match c with
              | 0 -> Control.goto 1
              | 1 -> Control.goto 2
              | 2 -> Control.br (Cond.Cc 0) 1 2
              | _ -> Control.Halt)
            choice))
  in
  QCheck2.Test.make ~count:500 ~name:"partition groups by signature" gen
    (fun signatures ->
      let p = Ximd_core.Partition.of_signatures signatures in
      List.for_all
        (fun sset ->
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Control.equal signatures.(a) signatures.(b))
                sset)
            sset)
        (Ximd_core.Partition.ssets p)
      && Ximd_core.Partition.n_fus p = Array.length signatures)

(* Controls over a tiny address space, so that signatures collide:
   every condition constructor, [Addr] and [Fallthrough] targets, equal
   and distinct target pairs.  Half the pairs re-spell one control for
   the other: [Fallthrough] and the address it resolves to swapped, at
   the same PC. *)
let gen_signature_pair =
  let open Gen in
  let pc = int_range 0 3 in
  let target =
    oneof
      [ map (fun a -> Control.Addr a) (int_range 0 4);
        pure Control.Fallthrough ]
  in
  let cond =
    oneof
      [ pure Cond.Always1; pure Cond.Always2;
        map (fun j -> Cond.Cc j) (int_bound 1);
        map (fun j -> Cond.Ss j) (int_bound 1);
        map (fun m -> Cond.All_ss m) (int_range 1 3);
        map (fun m -> Cond.Any_ss m) (int_range 1 3) ]
  in
  let control =
    frequency
      [ (1, pure Control.Halt);
        ( 6,
          map3
            (fun cond t1 t2 -> Control.Branch { cond; t1; t2 })
            cond target target );
        ( 2,
          map2
            (fun cond t -> Control.Branch { cond; t1 = t; t2 = t })
            cond target ) ]
  in
  let respell ~pc (c : Control.t) =
    let swap : Control.target -> Control.target = function
      | Control.Fallthrough -> Control.Addr (pc + 1)
      | Control.Addr a when a = pc + 1 -> Control.Fallthrough
      | Control.Addr _ as t -> t
    in
    match c with
    | Control.Halt -> c
    | Control.Branch { cond; t1; t2 } ->
      Control.Branch { cond; t1 = swap t1; t2 = swap t2 }
  in
  pair control pc >>= fun (a, pc_a) ->
  bool >>= fun respelt ->
  if respelt then pure (a, pc_a, respell ~pc:pc_a a, pc_a)
  else map2 (fun b pc_b -> (a, pc_a, b, pc_b)) control pc

(* The engine compares signatures on the program's decoded image: [a]
   sits in FU 0's column at [pc_a] and [b] in FU 1's at [pc_b], so the
   lowering resolves each at its own address. *)
let prop_same_signature =
  QCheck2.Test.make ~count:2000 ~name:"same_signature = equal of normalised"
    gen_signature_pair (fun (a, pc_a, b, pc_b) ->
      let rows =
        Array.init
          (max pc_a pc_b + 1)
          (fun _ -> [| Parcel.nop Control.halt; Parcel.nop Control.halt |])
      in
      rows.(pc_a).(0) <- Parcel.nop a;
      rows.(pc_b).(1) <- Parcel.nop b;
      let img = Ximd_core.Program.(image (make ~n_fus:2 rows)) in
      Ximd_core.Program.same_signature img (2 * pc_a) ((2 * pc_b) + 1)
      = Control.equal
          (Control.normalised_signature a ~pc:pc_a)
          (Control.normalised_signature b ~pc:pc_b))

(* After every step, the engine's partition is the one the step's
   signatures define (each executed control operation normalised at its
   PC under per-FU sequencers, each bank's next PC under two banks), and
   it is a new value exactly when the grouping changed. *)
let prop_partition_per_step =
  QCheck2.Test.make ~count:150 ~name:"engine partition per step"
    Ximd_gen.Proggen.case (fun (c : Ximd_gen.Proggen.case) ->
      let program = c.program in
      let n = Ximd_core.Program.n_fus program in
      let len = Ximd_core.Program.length program in
      let in_range pc = pc >= 0 && pc < len in
      let check model =
        let state = Ximd_core.State.create ~config:c.config program in
        let ok = ref true in
        while
          !ok
          && (not (Ximd_core.State.all_halted state))
          && state.cycle < c.config.max_cycles
        do
          let pcs = Array.copy state.pcs
          and halted = Array.copy state.halted
          and before = state.partition in
          Ximd_core.Engine.step model state;
          let signature fu : Control.t =
            match model with
            | Ximd_core.Engine.Banked ->
              let leader = if fu < n / 2 then 0 else n / 2 in
              let pc = state.pcs.(leader) in
              if state.halted.(leader) || not (in_range pc) then Control.Halt
              else Control.goto pc
            | Ximd_core.Engine.Per_fu | Ximd_core.Engine.Global ->
              if halted.(fu) || not (in_range pcs.(fu)) then Control.Halt
              else
                Control.normalised_signature
                  (Ximd_core.Program.row program pcs.(fu)).(fu).control
                  ~pc:pcs.(fu)
          in
          let expected =
            Ximd_core.Partition.of_signatures (Array.init n signature)
          in
          ok :=
            Ximd_core.Partition.equal state.partition expected
            && state.partition != before
               = not (Ximd_core.Partition.equal state.partition before)
        done;
        !ok
      in
      List.for_all
        (fun (m : Ximd_gen.Diff.model) ->
          match m with
          | Per_fu -> check Ximd_core.Engine.Per_fu
          | Banked -> check Ximd_core.Engine.Banked
          | Global -> true)
        (Ximd_gen.Diff.applicable_models program))

(* --- Consistency checks --------------------------------------------------- *)

(* Lockstep code, its upper bank run one row ahead or not, with at most
   one parcel's sync value flipped or control field replaced: every way
   one FU at one address can break either check.  With the bank shifted
   the program stays bank-consistent and is control-consistent only
   where consecutive rows agree. *)
let gen_perturbed_lockstep =
  let open Gen in
  Ximd_gen.Proggen.lockstep_program >>= fun (p, n) ->
  let len = Ximd_core.Program.length p in
  quad bool (int_bound (len - 1)) (int_bound (n - 1)) (int_bound 2)
  >|= fun (shifted, at, at_fu, change) ->
  let parcel addr fu =
    let row = if shifted && fu >= n / 2 then (addr + 1) mod len else addr in
    let (q : Parcel.t) = (Ximd_core.Program.row p row).(fu) in
    if addr <> at || fu <> at_fu || change = 0 then q
    else if change = 1 then
      { q with
        sync = (if Sync.equal q.sync Sync.Done then Sync.Busy else Sync.Done)
      }
    else if Control.equal q.control Control.halt then
      { q with control = Control.goto 0 }
    else { q with control = Control.halt }
  in
  Ximd_core.Program.make ~n_fus:n
    (Array.init len (fun addr -> Array.init n (parcel addr)))

(* The models' structural checks read the program's image (its class
   table and sync array); the reference restates them parcel by parcel,
   and the two must agree on every shape the fuzzer draws. *)
let prop_consistency_checks =
  QCheck2.Test.make ~count:1000
    ~name:"consistency checks = the reference's parcel walk"
    Gen.(
      frequency
        [ (2, map (fun (c : Ximd_gen.Proggen.case) -> c.program)
                Ximd_gen.Proggen.case);
          (1, map fst gen_forward_program);
          (2, gen_perturbed_lockstep) ])
    (fun p ->
      Ximd_core.Program.control_consistent p
      = Ximd_ref.Interp.consistent Global p
      && Ximd_core.Engine.bank_consistent p
         = Ximd_ref.Interp.consistent Banked p)

(* --- ALU ------------------------------------------------------------------ *)

let gen_value = Gen.map Value.of_int (Gen.int_range (-1 lsl 31) ((1 lsl 31) - 1))

let prop_alu_add_commutes =
  QCheck2.Test.make ~count:500 ~name:"iadd commutes"
    (Gen.pair gen_value gen_value) (fun (a, b) ->
      Ximd_machine.Alu.eval_bin Opcode.Iadd a b
      = Ximd_machine.Alu.eval_bin Opcode.Iadd b a)

let prop_alu_xor_involutive =
  QCheck2.Test.make ~count:500 ~name:"xor twice is identity"
    (Gen.pair gen_value gen_value) (fun (a, b) ->
      match Ximd_machine.Alu.eval_bin Opcode.Xor a b with
      | Ok x -> (
        match Ximd_machine.Alu.eval_bin Opcode.Xor x b with
        | Ok a' -> Value.equal a a'
        | Error _ -> false)
      | Error _ -> false)

let prop_alu_sub_add_inverse =
  QCheck2.Test.make ~count:500 ~name:"(a + b) - b = a"
    (Gen.pair gen_value gen_value) (fun (a, b) ->
      match Ximd_machine.Alu.eval_bin Opcode.Iadd a b with
      | Ok s -> (
        match Ximd_machine.Alu.eval_bin Opcode.Isub s b with
        | Ok a' -> Value.equal a a'
        | Error _ -> false)
      | Error _ -> false)

let prop_alu_compare_trichotomy =
  QCheck2.Test.make ~count:500 ~name:"exactly one of < = >"
    (Gen.pair gen_value gen_value) (fun (a, b) ->
      let c op = Ximd_machine.Alu.eval_cmp op a b in
      let lt = c Opcode.Lt and eq = c Opcode.Eq and gt = c Opcode.Gt in
      List.length (List.filter Fun.id [ lt; eq; gt ]) = 1
      && c Opcode.Le = (lt || eq)
      && c Opcode.Ge = (gt || eq)
      && c Opcode.Ne = not eq)

let prop_alu_shift_mask =
  QCheck2.Test.make ~count:500 ~name:"shift amount masked to 5 bits"
    (Gen.pair gen_value (Gen.int_range 0 200)) (fun (a, s) ->
      let sh n = Ximd_machine.Alu.eval_bin Opcode.Shl a (Value.of_int n) in
      sh s = sh (s land 31))

(* The data path computes on immediate ints.  It must agree, bit for
   bit, with the plain int32 formulas, restated here. *)
module Old_alu = struct
  let fl = Int32.float_of_bits
  let of_fl = Int32.bits_of_float

  (* [None]: division by zero. *)
  let bin (op : Opcode.binop) a b =
    let shift f = Some (f a (Int32.to_int b land 31)) in
    let div f = if Int32.equal b 0l then None else Some (f a b) in
    match op with
    | Iadd -> Some (Int32.add a b)
    | Isub -> Some (Int32.sub a b)
    | Imult -> Some (Int32.mul a b)
    | Idiv -> div Int32.div
    | Imod -> div Int32.rem
    | And -> Some (Int32.logand a b)
    | Or -> Some (Int32.logor a b)
    | Xor -> Some (Int32.logxor a b)
    | Shl -> shift Int32.shift_left
    | Shr -> shift Int32.shift_right_logical
    | Sar -> shift Int32.shift_right
    | Fadd -> Some (of_fl (fl a +. fl b))
    | Fsub -> Some (of_fl (fl a -. fl b))
    | Fmult -> Some (of_fl (fl a *. fl b))
    | Fdiv -> Some (of_fl (fl a /. fl b))

  let un (op : Opcode.unop) a =
    match op with
    | Mov -> a
    | Ineg -> Int32.neg a
    | Not -> Int32.lognot a
    | Fneg -> of_fl (-.fl a)
    | Itof -> of_fl (Int32.to_float a)
    | Ftoi -> Int32.of_float (fl a)

  let cmp (op : Opcode.cmpop) a b =
    let ic rel = rel (Int32.compare a b) 0 in
    let fc rel = rel (compare (fl a) (fl b)) 0 in
    match op with
    | Eq -> ic ( = )
    | Ne -> ic ( <> )
    | Lt -> ic ( < )
    | Le -> ic ( <= )
    | Gt -> ic ( > )
    | Ge -> ic ( >= )
    | Feq -> fc ( = )
    | Fne -> fc ( <> )
    | Flt -> fc ( < )
    | Fle -> fc ( <= )
    | Fgt -> fc ( > )
    | Fge -> fc ( >= )
end

let edge_patterns =
  [ 0l; 1l; -1l; Int32.min_int; Int32.max_int; 31l; 32l; 63l;
    Int32.bits_of_float Float.nan; 0x7fc0_0001l (* another NaN *);
    Int32.bits_of_float Float.infinity; Int32.bits_of_float Float.neg_infinity;
    1l (* smallest denormal *); 0x807f_ffffl (* largest negative denormal *);
    Int32.bits_of_float 1.5; Int32.bits_of_float (-3e9);
    Int32.bits_of_float 3e9 ]

let gen_pattern =
  Gen.(frequency [ (1, oneofl edge_patterns); (2, int32) ])

let all_binops : Opcode.binop list =
  [ Iadd; Isub; Imult; Idiv; Imod; And; Or; Xor; Shl; Shr; Sar;
    Fadd; Fsub; Fmult; Fdiv ]

let all_unops : Opcode.unop list = [ Mov; Ineg; Not; Fneg; Itof; Ftoi ]

let all_cmpops : Opcode.cmpop list =
  [ Eq; Ne; Lt; Le; Gt; Ge; Feq; Fne; Flt; Fle; Fgt; Fge ]

let prop_alu_matches_int32 =
  QCheck2.Test.make ~count:2000 ~name:"ALU agrees with the int32 formulas"
    (Gen.pair gen_pattern gen_pattern) (fun (a, b) ->
      let va = Value.of_int32 a and vb = Value.of_int32 b in
      List.for_all
        (fun op ->
          match
            (Old_alu.bin op a b, Ximd_machine.Alu.eval_bin_exn op va vb)
          with
          | Some r, v -> Int32.equal r (Value.to_int32 v)
          | None, _ -> false
          | exception Ximd_machine.Alu.Fault Division_by_zero ->
            Old_alu.bin op a b = None)
        all_binops
      && List.for_all
           (fun op ->
             Int32.equal (Old_alu.un op a)
               (Value.to_int32 (Ximd_machine.Alu.eval_un op va)))
           all_unops
      && List.for_all
           (fun op ->
             Old_alu.cmp op a b = Ximd_machine.Alu.eval_cmp op va vb)
           all_cmpops)

let prop_value_int32_views =
  QCheck2.Test.make ~count:1000 ~name:"value round-trips and prints as int32"
    (Gen.pair gen_pattern Gen.int) (fun (a, n) ->
      let v = Value.of_int32 a in
      Int32.equal (Value.to_int32 v) a
      && Value.to_int v = Int32.to_int a
      && Value.equal (Value.of_int n) (Value.of_int32 (Int32.of_int n))
      && Value.to_string v = Int32.to_string a
      && Format.asprintf "%a" Value.pp v = Printf.sprintf "%ld" a
      && Format.asprintf "%a" Value.pp_hex v = Printf.sprintf "0x%08lx" a
      && Format.asprintf "%a" Value.pp_float v
         = Printf.sprintf "%h" (Int32.float_of_bits a))

(* --- Scheduler -------------------------------------------------------------- *)

(* Random straight-line op arrays over a small vreg pool (uses may
   precede defs; the DDG only orders what is genuinely dependent). *)
let gen_ops =
  let open Gen in
  int_range 1 25 >>= fun n ->
  let gen_vreg = int_bound 12 in
  let gen_op =
    oneof
      [ map4
          (fun op a b d -> Ir_helpers.bin op a b d)
          (oneofl [ Opcode.Iadd; Opcode.Isub; Opcode.Imult; Opcode.And ])
          gen_vreg gen_vreg gen_vreg;
        map2 (fun a d -> Ir_helpers.load a d) gen_vreg gen_vreg;
        map2 (fun a b -> Ir_helpers.store a b) gen_vreg gen_vreg ]
  in
  list_repeat n gen_op >>= fun ops -> return (Array.of_list ops)

let prop_listsched_valid =
  QCheck2.Test.make ~count:300 ~name:"list schedule respects DDG"
    (Gen.pair gen_ops (Gen.int_range 1 8)) (fun (ops, width) ->
      let sched = C.Listsched.schedule ~width ops in
      match C.Listsched.verify ops sched with Ok () -> true | Error _ -> false)

let prop_pipeliner_valid =
  QCheck2.Test.make ~count:200 ~name:"modulo schedule verifies"
    (Gen.pair gen_ops (Gen.int_range 1 8)) (fun (ops, width) ->
      match C.Pipeliner.schedule ~width ops with
      | Ok sched -> (
        match C.Pipeliner.verify ~width ops sched with
        | Ok () -> sched.ii >= sched.res_mii
        | Error _ -> false)
      | Error _ -> false)

(* --- Compile vs interpret --------------------------------------------------- *)

(* Random well-formed straight-line functions: each op may only use
   already-defined vregs or parameters, so the interpreter and the
   machine see identical dataflow. *)
let gen_func =
  let open Gen in
  int_range 1 20 >>= fun n_ops ->
  let rec build i defined acc =
    if i >= n_ops then return (List.rev acc)
    else
      let gen_src = oneofl defined in
      let fresh = 100 + i in
      oneof
        [ map3
            (fun op a b -> C.Ir.Bin (op, C.Ir.V a, C.Ir.V b, fresh))
            (oneofl
               [ Opcode.Iadd; Opcode.Isub; Opcode.Imult; Opcode.And;
                 Opcode.Or; Opcode.Xor; Opcode.Shl; Opcode.Shr ])
            gen_src gen_src;
          map2
            (fun a c -> C.Ir.Bin (Opcode.Iadd, C.Ir.V a, C.Ir.C c, fresh))
            gen_src (map Int32.of_int (int_range (-100) 100));
          map
            (fun off -> C.Ir.Load (C.Ir.C 500l, C.Ir.C (Int32.of_int off), fresh))
            (int_bound 15);
          map2
            (fun a off ->
              C.Ir.Store (C.Ir.V a, C.Ir.C (Int32.of_int (600 + off))))
            gen_src (int_bound 15) ]
      >>= fun op ->
      let defined =
        match C.Ir.defs op with Some d -> d :: defined | None -> defined
      in
      build (i + 1) defined (op :: acc)
  in
  build 0 [ 0; 1; 2 ] [] >>= fun body ->
  let defined =
    [ 0; 1; 2 ] @ List.filter_map C.Ir.defs body
  in
  oneofl defined >>= fun result ->
  int_range 1 8 >>= fun width ->
  return
    ( { C.Ir.name = "prop";
        params = [ 0; 1; 2 ];
        results = [ result ];
        blocks = [ { C.Ir.label = "entry"; body; term = C.Ir.Return } ] },
      width )

let prop_compile_matches_interp =
  QCheck2.Test.make ~count:200 ~name:"compiled code = interpreter"
    (Gen.pair gen_func (Gen.list_repeat 3 (Gen.int_range (-1000) 1000)))
    (fun ((func, width), arg_ints) ->
      let args = List.map Value.of_int arg_ints in
      let mem = List.init 16 (fun i -> (500 + i, Value.of_int (i * 3 + 1))) in
      match C.Interp.run func ~args ~mem with
      | Error _ -> false
      | Ok interp_outcome -> (
        match C.Codegen.compile ~width func with
        | Error _ -> false
        | Ok compiled -> (
          let config = Ximd_core.Config.make ~n_fus:width () in
          let session =
            Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Global
              compiled.program
          in
          let bind = Result.get_ok (C.Codegen.bind_args compiled args) in
          let setup (state : Ximd_core.State.t) =
            bind state;
            List.iter (fun (a, v) -> Ximd_core.State.mem_set state a v) mem
          in
          let state = Ximd_core.Session.state session in
          match Ximd_core.Session.run ~setup session with
          | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
            false
          | Ximd_core.Run.Halted _ ->
            let results_match =
              List.for_all2 Value.equal
                (C.Codegen.results compiled state)
                interp_outcome.results
            in
            let mem_match =
              Hashtbl.fold
                (fun addr v acc ->
                  acc && Value.equal (Ximd_core.State.mem_get state addr) v)
                interp_outcome.mem true
            in
            results_match && mem_match)))

(* --- Pipelined kernel generation ------------------------------------------ *)

(* Random arithmetic loop bodies (no memory, no compares) with an
   appended unit-step induction op; the pipelined program must agree
   with the rolled interpretation for every live-out. *)
let gen_loop_body =
  let open Gen in
  let induction = 50 in
  int_range 1 10 >>= fun n_ops ->
  let pool = [ 0; 1; 2; 3; induction ] in
  let gen_vreg = oneofl pool in
  let gen_op =
    oneof
      [ map3
          (fun op a b ->
            fun d -> C.Ir.Bin (op, C.Ir.V a, C.Ir.V b, d))
          (oneofl [ Opcode.Iadd; Opcode.Isub; Opcode.Imult; Opcode.Xor ])
          gen_vreg gen_vreg;
        map2
          (fun a c ->
            fun d -> C.Ir.Bin (Opcode.Iadd, C.Ir.V a, C.Ir.C c, d))
          gen_vreg
          (map Int32.of_int (int_range (-9) 9)) ]
  in
  list_repeat n_ops (pair gen_op (oneofl [ 0; 1; 2; 3 ])) >>= fun mk ->
  let body =
    List.map (fun (f, d) -> f d) mk
    @ [ C.Ir.Bin (Opcode.Iadd, C.Ir.V induction, C.Ir.C 1l, induction) ]
  in
  (* The live-out must be something the body actually defines. *)
  oneofl (List.sort_uniq compare (List.map snd mk)) >>= fun out ->
  int_range 1 8 >>= fun width ->
  int_range 0 5 >>= fun extra_passes ->
  return (Array.of_list body, out, width, extra_passes, induction)

let prop_kernelgen_matches_rolled =
  QCheck2.Test.make ~count:150 ~name:"pipelined loop = rolled loop"
    gen_loop_body (fun (ops, out, width, extra_passes, induction) ->
      match C.Kernelgen.compile ~width ~live_out:[ out ] ops with
      | Error _ -> false
      | Ok k -> (
        let trip = k.min_trip + (extra_passes * k.unroll) in
        let inputs =
          List.map
            (fun v ->
              (* The induction variable must start at 0 so the rolled
                 loop's [i < trip] test agrees with the pass count. *)
              (v, if v = induction then Value.zero
                  else Value.of_int ((v * 13) + 1)))
            (C.Kernelgen.live_in ops)
        in
        let config =
          Ximd_core.Config.make ~n_fus:width ~max_cycles:100_000 ()
        in
        let session =
          Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu
            k.program
        in
        let setup (state : Ximd_core.State.t) =
          Ximd_machine.Regfile.set state.regs k.trip_reg (Value.of_int trip);
          List.iter
            (fun (v, value) ->
              match List.assoc_opt v k.live_in_regs with
              | Some reg -> Ximd_machine.Regfile.set state.regs reg value
              | None -> ())
            inputs
        in
        let state = Ximd_core.Session.state session in
        match Ximd_core.Session.run ~setup session with
        | Ximd_core.Run.Fuel_exhausted _ | Ximd_core.Run.Deadlocked _
   | Ximd_core.Run.Budget_exceeded _ ->
          false
        | Ximd_core.Run.Halted _ -> (
          let trip_vreg = 99 in
          let func =
            C.Kernelgen.rolled_reference ~trip:trip_vreg ~induction
              ~live_out:[ out ] ops
          in
          let args =
            List.map
              (fun v ->
                if v = trip_vreg then Value.of_int trip
                else
                  match List.assoc_opt v inputs with
                  | Some x -> x
                  | None -> Value.zero)
              func.params
          in
          match C.Interp.run func ~args ~mem:[] with
          | Error _ -> false
          | Ok rolled ->
            let reg = List.assoc out k.live_out_regs in
            Value.equal
              (Ximd_machine.Regfile.read state.regs reg)
              (List.hd rolled.results))))

(* --- Packing ------------------------------------------------------------------ *)

(* Fabricate tiles of arbitrary shape around one real compilation. *)
let dummy_compiled =
  lazy
    (match
       C.Codegen.compile ~width:1
         { C.Ir.name = "dummy"; params = []; results = [];
           blocks =
             [ { C.Ir.label = "entry"; body = []; term = C.Ir.Return } ] }
     with
     | Ok c -> c
     | Error _ -> failwith "dummy compile failed")

let tile thread width length =
  { C.Tile.thread; width; length; compiled = Lazy.force dummy_compiled }

let gen_menus =
  let open Gen in
  int_range 2 7 >>= fun n_threads ->
  let gen_menu i =
    int_range 1 4 >>= fun n_tiles ->
    list_repeat n_tiles
      (pair (int_range 1 8) (int_range 1 12))
    >>= fun shapes ->
    return
      ( Printf.sprintf "t%d" i,
        List.map (fun (w, l) -> tile (Printf.sprintf "t%d" i) w l) shapes )
  in
  let rec menus i acc =
    if i >= n_threads then return (List.rev acc)
    else gen_menu i >>= fun m -> menus (i + 1) (m :: acc)
  in
  menus 0 []

let prop_pack_density_valid =
  QCheck2.Test.make ~count:200 ~name:"density packing valid and bounded"
    gen_menus (fun menus ->
      match C.Packing.pack_density ~n_fus:8 menus with
      | Error _ -> false
      | Ok packing -> (
        match C.Packing.valid packing with
        | Ok () -> packing.height >= packing.lower_bound
        | Error _ -> false))

let gen_menus_with_deps =
  let open Gen in
  gen_menus >>= fun menus ->
  let names = List.map fst menus in
  let n = List.length names in
  (* forward edges only: guaranteed acyclic *)
  list_repeat (n - 1) (pair (int_bound (n - 1)) (int_bound (n - 1)))
  >>= fun raw ->
  let deps =
    List.filter_map
      (fun (a, b) ->
        if a < b then Some (List.nth names a, List.nth names b) else None)
      raw
  in
  return (menus, deps)

let prop_pack_time_valid =
  QCheck2.Test.make ~count:200 ~name:"time packing valid, deps respected"
    gen_menus_with_deps (fun (menus, deps) ->
      match C.Packing.pack_time ~n_fus:8 ~deps menus with
      | Error _ -> false
      | Ok packing -> (
        match C.Packing.valid packing with
        | Error _ -> false
        | Ok () ->
          let placed name =
            List.find
              (fun (p : C.Packing.placement) -> p.thread = name)
              packing.placements
          in
          packing.height >= packing.lower_bound
          && List.for_all
               (fun (before, after) ->
                 let b = placed before and a = placed after in
                 a.y >= b.y + b.tile.length)
               deps))

let suite =
  [ ( "properties",
      List.map to_alcotest
        [ prop_parcel_roundtrip;
          prop_parcel_bytes_roundtrip;
          prop_program_image_roundtrip;
          prop_asm_source_roundtrip;
          prop_xsim_equals_vsim;
          prop_partition_string_roundtrip;
          prop_partition_of_signatures_sound;
          prop_alu_add_commutes;
          prop_alu_xor_involutive;
          prop_alu_sub_add_inverse;
          prop_alu_compare_trichotomy;
          prop_alu_shift_mask;
          prop_alu_matches_int32;
          prop_value_int32_views;
          prop_same_signature;
          prop_partition_per_step;
          prop_listsched_valid;
          prop_pipeliner_valid;
          prop_compile_matches_interp;
          prop_kernelgen_matches_rolled;
          prop_pack_density_valid;
          prop_pack_time_valid;
          prop_consistency_checks ] ) ]
