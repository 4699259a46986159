module B = Ximd_asm.Builder

type result = {
  compiled : Codegen.compiled;
  trace : string list;
  region_rows : int;
  blockwise_rows : int;
}

(* ------------------------------------------------------------------ *)
(* Trace selection                                                     *)

let predecessors (func : Ir.func) =
  let table = Hashtbl.create 17 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun l -> Hashtbl.add table l b.label) (Ir.successors b.term))
    func.blocks;
  Hashtbl.find_all table

(* Probability that a block's branch takes its then-target. *)
let prob_of prob label =
  match List.assoc_opt label prob with Some p -> p | None -> 0.5

let select_trace ?(prob = []) (func : Ir.func) =
  let preds = predecessors func in
  let rec follow acc (b : Ir.block) =
    let acc = acc @ [ b.label ] in
    let next =
      match b.term with
      | Ir.Return -> None
      | Ir.Jump l -> Some l
      | Ir.Branch (_, t1, t2) ->
        Some (if prob_of prob b.label >= 0.5 then t1 else t2)
    in
    match next with
    | None -> acc
    | Some l -> (
      if List.mem l acc then acc
      else
        match Ir.block_named func l with
        | None -> acc
        | Some next_block ->
          (* Side-entrance restriction: every predecessor of a non-head
             trace block must be the block we came from. *)
          let outside =
            List.filter (fun p -> p <> b.label) (preds l)
          in
          if outside <> [] then acc else follow acc next_block)
  in
  match func.blocks with [] -> [] | entry :: _ -> follow [] entry

(* ------------------------------------------------------------------ *)
(* Region construction                                                 *)

type node =
  | Data of { op : Ir.op; block_pos : int }
  | Exit of { cmp : int; on_trace_is_t1 : bool; off : string; block_pos : int }
  | Final of Ir.terminator * int option  (* cmp node for a final Branch *)

let is_control = function Data _ -> false | Exit _ | Final _ -> true

(* The region's dependence graph: the DDG of the trace's data ops
   (nodes [0 .. k-1], in trace order) plus [Control] edges that order
   the side exits and keep speculation safe. *)
let build_region (func : Ir.func) trace_labels ~prob =
  let live = Liveness.compute func in
  let blocks =
    List.map
      (fun l ->
        match Ir.block_named func l with
        | Some b -> b
        | None -> invalid_arg "trace label without block")
      trace_labels
  in
  let n_blocks = List.length blocks in
  (* Nodes: data ops in trace order, then control nodes interleaved
     logically via edges (their list position does not matter). *)
  let nodes = ref [] and n_nodes = ref 0 in
  let push node =
    nodes := node :: !nodes;
    let id = !n_nodes in
    incr n_nodes;
    id
  in
  (* Data nodes; remember (node id, op, block position) and, per block,
     the node of the Cmp feeding its terminator. *)
  let data_nodes = ref [] in
  let cmp_node_for = Hashtbl.create 7 in
  List.iteri
    (fun bi (b : Ir.block) ->
      List.iter
        (fun op ->
          let id = push (Data { op; block_pos = bi }) in
          data_nodes := (id, op, bi) :: !data_nodes;
          (match (Ir.def_pred op, b.term) with
           | Some p, Ir.Branch (q, _, _) when p = q ->
             Hashtbl.replace cmp_node_for b.label id
           | _ -> ()))
        b.body)
    blocks;
  let data_nodes = List.rev !data_nodes in
  (* DDG edges over the concatenated data ops, whose node ids are their
     positions. *)
  let ops = Array.of_list (List.map (fun (_, op, _) -> op) data_nodes) in
  let edges = ref (Ddg.edges (Ddg.build ops)) in
  let add_edge src dst latency =
    edges := { Ddg.src; dst; latency; kind = Ddg.Control } :: !edges
  in
  (* Control nodes. *)
  let control_nodes = ref [] in
  List.iteri
    (fun bi (b : Ir.block) ->
      if bi < n_blocks - 1 then begin
        match b.term with
        | Ir.Jump _ -> ()  (* absorbed into the region *)
        | Ir.Return -> invalid_arg "Return inside a trace"
        | Ir.Branch (_, t1, t2) ->
          let on_t1 = prob_of prob b.label >= 0.5 in
          let off = if on_t1 then t2 else t1 in
          let cmp = Hashtbl.find cmp_node_for b.label in
          let id = push (Exit { cmp; on_trace_is_t1 = on_t1; off; block_pos = bi }) in
          add_edge cmp id 1;
          control_nodes := (id, bi, Some off) :: !control_nodes
      end
      else begin
        let cmp =
          match b.term with
          | Ir.Branch _ -> Some (Hashtbl.find cmp_node_for b.label)
          | Ir.Jump _ | Ir.Return -> None
        in
        let id = push (Final (b.term, cmp)) in
        (match cmp with Some c -> add_edge c id 1 | None -> ());
        control_nodes := (id, bi, None) :: !control_nodes
      end)
    blocks;
  let control_nodes = List.rev !control_nodes in
  (* Order among control nodes. *)
  let rec chain = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) ->
      add_edge a b 1;
      chain rest
    | [ _ ] | [] -> ()
  in
  chain control_nodes;
  (* Speculation / commit constraints against each side exit. *)
  List.iter
    (fun (exit_id, exit_bi, off) ->
      match off with
      | None ->
        (* Final node: everything must be committed by its row. *)
        List.iter
          (fun (id, _, _) -> add_edge id exit_id 0)
          data_nodes;
        List.iter
          (fun (id, _, _) -> if id <> exit_id then add_edge id exit_id 1)
          control_nodes
      | Some off_label ->
        let live_off = Liveness.live_in live off_label in
        let pinned op =
          Ir.is_store op
          ||
          match Ir.defs op with
          | Some d -> Liveness.VSet.mem d live_off
          | None -> false
        in
        List.iter
          (fun (id, op, bi) ->
            if bi > exit_bi && pinned op then
              (* May not speculate above the exit. *)
              add_edge exit_id id 1
            else if bi <= exit_bi && pinned op then
              (* Must commit no later than the exit row. *)
              add_edge id exit_id 0)
          data_nodes)
    control_nodes;
  let nodes = Array.of_list (List.rev !nodes) in
  (nodes, Ddg.of_edges (Array.length nodes) !edges)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let emit_region builder reg_of nodes rows =
  (* Track the FU slot assigned to each data node as rows are emitted,
     so exits can reference the condition code their compare set. *)
  let slot_of = Hashtbl.create 17 in
  Array.iter
    (fun row ->
      let datas, control = List.partition (fun i -> not (is_control nodes.(i))) row in
      List.iteri (fun slot i -> Hashtbl.replace slot_of i slot) datas;
      let ctl =
        match control with
        | [] -> B.goto B.next
        | i :: _ -> (
          match nodes.(i) with
          | Data _ -> assert false
          | Exit { cmp; on_trace_is_t1; off; _ } ->
            let slot = Hashtbl.find slot_of cmp in
            if on_trace_is_t1 then B.if_cc slot B.next (B.lbl off)
            else B.if_cc slot (B.lbl off) B.next
          | Final (term, cmp) -> (
            match term with
            | Ir.Return -> B.halt
            | Ir.Jump l -> B.goto (B.lbl l)
            | Ir.Branch (_, t1, t2) ->
              let slot =
                match cmp with
                | Some c -> Hashtbl.find slot_of c
                | None -> assert false
              in
              B.if_cc slot (B.lbl t1) (B.lbl t2)))
      in
      let specs =
        List.map
          (fun i ->
            match nodes.(i) with
            | Data { op; _ } -> B.d (Codegen.data_of_op ~use:reg_of ~def:reg_of op)
            | Exit _ | Final _ -> assert false)
          datas
      in
      B.row builder ~ctl specs)
    rows

let compile ?(width = 8) ?(prob = []) ?obs (func : Ir.func) =
  let emit builder reg_of =
    match Schedobs.pass obs "trace-select" (fun () -> select_trace ~prob func) with
    | [] -> Error [ "empty function" ]
    | head :: _ as trace -> (
      match
        Schedobs.pass obs "region-build" (fun () -> build_region func trace ~prob)
      with
      | exception Invalid_argument msg -> Error [ msg ]
      | nodes, g ->
        (* [width] data slots and one control slot per row *)
        let sched =
          Schedobs.pass obs "region-schedule" (fun () ->
            Listsched.schedule_graph g
              ~cls:(Array.map (fun node -> if is_control node then 1 else 0) nodes)
              ~caps:[| width; 1 |])
        in
        B.label builder head;
        Schedobs.pass obs "emit" (fun () ->
          emit_region builder reg_of nodes sched.rows;
          (* Off-trace blocks, block at a time. *)
          List.iter
            (fun (b : Ir.block) ->
              if not (List.mem b.label trace) then
                Codegen.emit_block ?obs builder reg_of ~width b)
            func.blocks);
        Ok (trace, Listsched.length sched))
  in
  match Codegen.drive ?obs ~width func emit with
  | Error errors -> Error errors
  | Ok (compiled, (trace, region_rows)) ->
    let blockwise_rows =
      List.fold_left
        (fun acc label ->
          match Ir.block_named func label with
          | Some b -> acc + Codegen.block_rows ~width b
          | None -> acc)
        0 trace
    in
    Ok { compiled; trace; region_rows; blockwise_rows }
