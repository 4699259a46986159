open Ximd_isa
module B = Ximd_asm.Builder

type compiled = {
  program : Ximd_core.Program.t;
  width : int;
  param_regs : (Ir.vreg * Reg.t) list;
  result_regs : (Ir.vreg * Reg.t) list;
  static_rows : int;
  used_regs : int;
}

let check_width width =
  if width < 1 || width > 16 then
    Error (Printf.sprintf "bad width %d: the machine has 1 to 16 FUs" width)
  else Ok ()

let operand reg_of = function
  | Ir.V v -> Operand.Reg (reg_of v)
  | Ir.C c -> Operand.Imm (Value.of_int32 c)
  | Ir.Cf f -> Operand.Imm (Value.of_float f)

let data_of_op ~use ~def (op : Ir.op) =
  let o = operand use in
  match op with
  | Ir.Bin (bop, a, b, d) -> Parcel.Dbin { op = bop; a = o a; b = o b; d = def d }
  | Ir.Un (uop, a, d) -> Parcel.Dun { op = uop; a = o a; d = def d }
  | Ir.Cmp (cop, a, b, _) -> Parcel.Dcmp { op = cop; a = o a; b = o b }
  | Ir.Load (a, b, d) -> Parcel.Dload { a = o a; b = o b; d = def d }
  | Ir.Store (a, b) -> Parcel.Dstore { a = o a; b = o b }

(* Row and FU slot of the compare that sets a conditional terminator's
   predicate (the last one in issue order). *)
let terminator_cmp (sched : Listsched.t) ops term =
  match term with
  | Ir.Jump _ | Ir.Return -> None
  | Ir.Branch (p, _, _) ->
    let found = ref None in
    Array.iteri
      (fun r row ->
        List.iteri
          (fun slot i ->
            match ops.(i) with
            | Ir.Cmp (_, _, _, q) when q = p -> found := Some (r, slot)
            | Ir.Cmp _ | Ir.Bin _ | Ir.Un _ | Ir.Load _ | Ir.Store _ -> ())
          row)
      sched.rows;
    !found

(* Rows a block must occupy: the schedule itself, plus room for a
   conditional terminator's compare to commit strictly before the branch
   row, plus — on a pipelined datapath — room for every register/memory
   write to commit before control leaves the block (cross-block flow
   dependences are not in the block-local DDG). *)
let required_rows ~latency (sched : Listsched.t) ops cmp =
  let last_commit = ref (Array.length sched.rows - 1) in
  Array.iteri
    (fun r row ->
      List.iter
        (fun i ->
          match ops.(i) with
          | Ir.Cmp _ -> ()
          | Ir.Bin _ | Ir.Un _ | Ir.Load _ | Ir.Store _ ->
            last_commit := max !last_commit (r + latency - 1))
        row)
    sched.rows;
  let min_total = max 1 (!last_commit + 1) in
  match cmp with Some (r, _) -> max min_total (r + 2) | None -> min_total

(* Emit one scheduled block. *)
let emit_scheduled ~latency builder reg_of (block : Ir.block)
    (sched : Listsched.t) ops =
  B.label builder block.label;
  let cmp = terminator_cmp sched ops block.term in
  let total_rows = required_rows ~latency sched ops cmp in
  let n_rows = Array.length sched.rows in
  let terminator_ctl =
    match (block.term, cmp) with
    | Ir.Jump l, _ -> B.goto (B.lbl l)
    | Ir.Return, _ -> B.halt
    | Ir.Branch (_, t1, t2), Some (_, slot) -> B.if_cc slot (B.lbl t1) (B.lbl t2)
    | Ir.Branch _, None ->
      (* Ir.validate guarantees the compare exists. *)
      assert false
  in
  for r = 0 to total_rows - 1 do
    let row_ops = if r < n_rows then sched.rows.(r) else [] in
    let ctl = if r = total_rows - 1 then terminator_ctl else B.goto B.next in
    B.row builder ~ctl
      (List.map (fun i -> B.d (data_of_op ~use:reg_of ~def:reg_of ops.(i))) row_ops)
  done

let emit_block ?(latency = 1) ?obs builder reg_of ~width (block : Ir.block) =
  let ops = Array.of_list block.body in
  let sched = Listsched.schedule ~latency ~width ops in
  (match obs with
   | None -> ()
   | Some t ->
     Schedobs.record_block t ~label:block.label ~width ~ops sched);
  emit_scheduled ~latency builder reg_of block sched ops

let block_rows ?(latency = 1) ~width (block : Ir.block) =
  let ops = Array.of_list block.body in
  let sched = Listsched.schedule ~latency ~width ops in
  required_rows ~latency sched ops (terminator_cmp sched ops block.term)

(* Single-block while-loop bodies: a block whose terminator jumps to a
   head block whose branch re-enters it.  Exactly the shape the
   modulo-scheduling analysis (Pipeliner) understands; join blocks are
   never branch targets of such a head, so there are no false
   positives. *)
let loop_bodies (func : Ir.func) =
  List.filter
    (fun (b : Ir.block) ->
      b.body <> []
      &&
      match b.term with
      | Ir.Jump h -> (
        match Ir.block_named func h with
        | Some { term = Ir.Branch (_, t1, t2); _ } ->
          t1 = b.label || t2 = b.label
        | Some _ | None -> false)
      | Ir.Branch _ | Ir.Return -> false)
    func.blocks

let drive ?reg_base ?obs ~width (func : Ir.func) emit =
  match check_width width with
  | Error msg -> Error [ msg ]
  | Ok () -> (
    (match obs with None -> () | Some t -> Schedobs.set_source t func.name);
    match Schedobs.pass obs "validate" (fun () -> Ir.validate func) with
    | Error errors -> Error errors
    | Ok () -> (
      match
        Schedobs.pass obs "regalloc" (fun () -> Regalloc.trivial ?reg_base func)
      with
      | Error msg -> Error [ "register allocation: " ^ msg ]
      | Ok assignment -> (
        let builder = B.create ~n_fus:width in
        match emit builder assignment.reg_of with
        | Error errors -> Error errors
        | Ok extra ->
          let program = B.build builder in
          let regs = List.map (fun v -> (v, assignment.reg_of v)) in
          Ok
            ( { program;
                width;
                param_regs = regs func.params;
                result_regs = regs func.results;
                static_rows = Ximd_core.Program.length program;
                used_regs = assignment.used },
              extra ))))

let compile ?(width = 8) ?latency ?reg_base ?obs (func : Ir.func) =
  let emit builder reg_of =
    Schedobs.pass obs "schedule+emit" (fun () ->
      List.iter
        (fun (block : Ir.block) ->
          emit_block ?latency ?obs builder reg_of ~width block)
        func.blocks);
    (* Modulo-scheduling bound accounting for every while-loop body:
       analysis only (the emitted code is the blockwise schedule);
       reports ResMII/RecMII/achieved II per loop. *)
    (match obs with
     | None -> ()
     | Some t ->
       Schedobs.pass obs "loop-bounds" (fun () ->
         List.iter
           (fun (b : Ir.block) ->
             ignore
               (Pipeliner.schedule ~obs:t
                  ~label:(func.name ^ "/" ^ b.label)
                  ~width
                  (Array.of_list b.body)))
           (loop_bodies func)));
    Ok ()
  in
  match drive ?reg_base ?obs ~width func emit with
  | Ok (compiled, ()) -> Ok compiled
  | Error errors -> Error errors

(* The calling convention: argument i lives in the i-th parameter
   register and result i in the i-th result register. *)
let bind_args compiled args =
  let n = List.length compiled.param_regs and m = List.length args in
  if n <> m then Error (Printf.sprintf "expected %d arguments, got %d" n m)
  else
    Ok
      (fun state ->
        List.iter2
          (fun (_, reg) v -> Ximd_core.State.set_reg state (Reg.index reg) v)
          compiled.param_regs args)

let results compiled state =
  List.map
    (fun (_, reg) -> Ximd_core.State.reg state (Reg.index reg))
    compiled.result_regs
