open Ximd_isa
module B = Ximd_asm.Builder

type t = {
  program : Ximd_core.Program.t;
  width : int;
  ii : int;
  stages : int;
  unroll : int;
  min_trip : int;
  trip_reg : Reg.t;
  live_in_regs : (Ir.vreg * Reg.t) list;
  live_out_regs : (Ir.vreg * Reg.t) list;
  kernel_rows : int;
}

let pos_mod x u = ((x mod u) + u) mod u

let variant_defs ops =
  Array.to_list ops |> List.filter_map Ir.defs |> List.sort_uniq compare

let live_in ops =
  let variants = variant_defs ops in
  let found = ref [] in
  Array.iteri
    (fun idx op ->
      List.iter
        (fun v ->
          let carried_or_invariant =
            (not (List.mem v variants)) || Pipeliner.use_distance ops idx v = 1
          in
          if carried_or_invariant && not (List.mem v !found) then
            found := v :: !found)
        (Ir.uses op))
    ops;
  List.rev !found

(* ------------------------------------------------------------------ *)

let has_cmp ops =
  Array.exists
    (function
      | Ir.Cmp _ -> true
      | Ir.Bin _ | Ir.Un _ | Ir.Load _ | Ir.Store _ -> false)
    ops

let compile ~width ~live_out ops =
  let n = Array.length ops in
  match Codegen.check_width width with
  | Error _ as e -> e
  | Ok () when n = 0 -> Error "empty loop body"
  | Ok () when has_cmp ops ->
    Error
      "loop bodies must not contain compares: the kernel's loop branch \
       owns the condition codes"
  | Ok () ->
    match Pipeliner.schedule ~width ops with
    | Error msg -> Error msg
    | Ok sched ->
      let ii = sched.ii and stages = sched.stages in
      let times = sched.times in
      let variants = variant_defs ops in
      let stage_of o = times.(o) / ii in
      (* MVE degree: overlapping live instances of any variant vreg. *)
      let lifetime v =
        let def_time = ref max_int and last_use = ref min_int in
        Array.iteri
          (fun i op ->
            if Ir.defs op = Some v then def_time := min !def_time times.(i);
            if List.mem v (Ir.uses op) then
              last_use :=
                max !last_use (times.(i) + (ii * Pipeliner.use_distance ops i v)))
          ops;
        max !last_use !def_time - !def_time
      in
      let unroll =
        List.fold_left (fun u v -> max u ((lifetime v / ii) + 1)) 1 variants
      in
      (* Physical registers: invariants and scalars first, then u copies
         per variant vreg. *)
      let invariants =
        List.filter (fun v -> not (List.mem v variants)) (live_in ops)
      in
      let next = ref 0 in
      let fresh () =
        let r = !next in
        incr next;
        r
      in
      let trip_phys = fresh () in
      let count_phys = fresh () in
      let invariant_phys = List.map (fun v -> (v, fresh ())) invariants in
      let variant_base =
        List.map
          (fun v ->
            let base = !next in
            next := !next + unroll;
            (v, base))
          variants
      in
      if !next > Reg.count then
        Error
          (Printf.sprintf "needs %d registers, have %d" !next Reg.count)
      else begin
        let phys_of ~wmod ~stage ~distance v =
          if List.mem v variants then
            let base = List.assoc v variant_base in
            Reg.make (base + pos_mod (wmod - stage - distance) unroll)
          else Reg.make (List.assoc v invariant_phys)
        in
        (* An op reads each register from the copy its producing
           iteration wrote, and writes its own iteration's copy. *)
        let data ~wmod op_idx =
          let stage = stage_of op_idx in
          Codegen.data_of_op
            ~use:(fun v ->
              phys_of ~wmod ~stage
                ~distance:(Pipeliner.use_distance ops op_idx v) v)
            ~def:(phys_of ~wmod ~stage ~distance:0)
            ops.(op_idx)
        in
        (* Rows of one window: ops filtered by stage, keyed by local
           schedule row. *)
        let window_rows ~wmod ~include_stage =
          List.init ii (fun r ->
            List.init n Fun.id
            |> List.filter (fun o ->
                 times.(o) mod ii = r && include_stage (stage_of o))
            |> List.map (fun o -> data ~wmod o))
        in
        let builder = B.create ~n_fus:width in
        let emit_plain_rows rows =
          List.iter
            (fun datas -> B.row builder (List.map B.d datas))
            rows
        in
        (* Preamble: K = (T - (S-1)) / u. *)
        let trip_reg = Reg.make trip_phys and count_reg = Reg.make count_phys in
        B.row builder
          [ B.d
              (B.isub (Operand.Reg trip_reg)
                 (Operand.imm (stages - 1))
                 count_reg) ];
        B.row builder
          [ B.d
              (B.idiv (Operand.Reg count_reg) (Operand.imm unroll) count_reg)
          ];
        (* Ramp: windows 0..S-2, stages <= w. *)
        for w = 0 to stages - 2 do
          emit_plain_rows
            (window_rows ~wmod:(pos_mod w unroll) ~include_stage:(fun s ->
               s <= w))
        done;
        (* Kernel: u windows, plus loop control.  The counter decrement
           and the (old-value) compare share one row with two free
           slots strictly before the last row; otherwise rows are
           appended. *)
        B.label builder "kernel";
        let kernel_rows =
          List.concat
            (List.init unroll (fun k ->
               window_rows
                 ~wmod:(pos_mod (stages - 1 + k) unroll)
                 ~include_stage:(fun _ -> true)))
        in
        let dec =
          B.isub (Operand.Reg count_reg) (Operand.imm 1) count_reg
        in
        (* Sharing a row, the compare reads the counter before the
           decrement commits (start-of-cycle operands), so it tests
           [> 1]; in its own later row it sees the new value and tests
           [> 0]. *)
        let cmp_shared = B.gt (Operand.Reg count_reg) (Operand.imm 1) in
        let cmp_after = B.gt (Operand.Reg count_reg) (Operand.imm 0) in
        let base_len = List.length kernel_rows in
        let host =
          (* index of a row with two free slots, before the last row *)
          let rec find i = function
            | [] -> None
            | row :: rest ->
              if i < base_len - 1 && List.length row <= width - 2 then Some i
              else find (i + 1) rest
          in
          find 0 kernel_rows
        in
        let kernel_rows, cmp_slot, total_kernel_rows =
          match host with
          | Some i ->
            let rows =
              List.mapi
                (fun j row ->
                  if j = i then row @ [ dec; cmp_shared ] else row)
                kernel_rows
            in
            (rows, List.length (List.nth kernel_rows i) + 1, base_len)
          | None when width >= 2 ->
            (* Append a control row (dec + shared cmp) and let the
               branch ride on a final empty row. *)
            (kernel_rows @ [ [ dec; cmp_shared ]; [] ], 1, base_len + 2)
          | None ->
            (* Width 1: decrement, compare and branch each need a row. *)
            (kernel_rows @ [ [ dec ]; [ cmp_after ]; [] ], 0, base_len + 3)
        in
        List.iteri
          (fun j datas ->
            let ctl =
              if j = total_kernel_rows - 1 then
                B.if_cc cmp_slot (B.lbl "kernel") (B.lbl "drain")
              else B.goto B.next
            in
            B.row builder ~ctl (List.map B.d datas))
          kernel_rows;
        (* Drain: windows T..T+S-2 — statically, stages >= dt+1; the
           window index mod u is (S-1+dt) mod u by the trip contract. *)
        B.label builder "drain";
        if stages = 1 then B.row builder []
        else
          for dt = 0 to stages - 2 do
            emit_plain_rows
              (window_rows
                 ~wmod:(pos_mod (stages - 1 + dt) unroll)
                 ~include_stage:(fun s -> s >= dt + 1))
          done;
        B.halt_row builder;
        let program = B.build builder in
        let live_in_regs =
          List.map
            (fun v ->
              if List.mem v variants then
                (* iteration 0 reads copy (0 - 1) mod u *)
                let base = List.assoc v variant_base in
                (v, Reg.make (base + pos_mod (-1) unroll))
              else (v, Reg.make (List.assoc v invariant_phys)))
            (live_in ops)
        in
        let out_copy = pos_mod (stages - 2) unroll in
        let rec check_live_out = function
          | [] -> Ok ()
          | v :: rest ->
            if List.mem v variants then check_live_out rest
            else Error (Printf.sprintf "live-out v%d is not defined in the body" v)
        in
        match check_live_out live_out with
        | Error msg -> Error msg
        | Ok () ->
          let live_out_regs =
            List.map
              (fun v ->
                let base = List.assoc v variant_base in
                (v, Reg.make (base + out_copy)))
              live_out
          in
          Ok
            { program;
              width;
              ii;
              stages;
              unroll;
              min_trip = stages - 1 + unroll;
              trip_reg;
              live_in_regs;
              live_out_regs;
              kernel_rows = total_kernel_rows }
      end

(* ------------------------------------------------------------------ *)

let rolled_reference ~trip ~induction ~live_out ops =
  { Ir.name = "rolled";
    params = trip :: live_in ops;
    results = live_out;
    blocks =
      [ { Ir.label = "entry"; body = []; term = Ir.Jump "loop" };
        { Ir.label = "loop";
          body =
            Array.to_list ops
            @ [ Ir.Cmp (Opcode.Lt, Ir.V induction, Ir.V trip, 0) ];
          term = Ir.Branch (0, "loop", "exit") };
        { Ir.label = "exit"; body = []; term = Ir.Return } ] }
