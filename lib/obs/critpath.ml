(* Dynamic-dependence critical path, built online from each finished
   cycle's record (the drop-oldest event ring cannot be replayed
   soundly — see DESIGN.md §9).  Nodes are committing data operations; edges are the
   realised dependences that constrained their issue cycle:

     seq      same-FU program order                 latency 1
     reg      register def -> use                   latency result_latency
     cc       compare -> dependent branch exit      latency 2
     ss       SS producer -> spin exit              latency 2
     barrier  barrier producers -> barrier exit     latency 2

   Each node keeps the single tightest in-edge (max earliest-issue over
   the candidates, first-max on ties in the fixed order seq, control,
   reg), so the longest chain is recovered by walking parents.  Every
   edge is a {e realised} dependence — a register edge is only taken
   when the def's result had actually arrived ([def.cycle + latency <=
   use.cycle]); a use that raced ahead read the older value and carries
   no edge.  Dropping edges only loosens the bound, so the invariant
   [lower_bound <= realised cycles] always holds. *)

open Ximd_isa

type edge = Start | Seq | Reg | Cc | Ss | Barrier

let edge_name = function
  | Start -> "start"
  | Seq -> "seq"
  | Reg -> "reg"
  | Cc -> "cc"
  | Ss -> "ss"
  | Barrier -> "barrier"

type node = {
  e_kind : edge;          (* kind of the in-edge from [parent] *)
  e_latency : int;
  parent : node option;
  dist : int;             (* earliest possible issue cycle *)
  cycle : int;            (* realised issue cycle *)
  fu : int;
  pc : int;
}

(* Control-dependence producers become visible to the consumer two
   cycles after they issue: one for the signal/code to commit, one for
   the released branch to fetch. *)
let ctrl_latency = 2

type t = {
  n_fus : int;
  last : node option array;      (* per FU: latest committed op *)
  reg_def : node option array;   (* per register: latest visible def *)
  cc_def : node option array;    (* per FU: latest visible compare *)
  ss_def : node option array;    (* per FU: op behind the latest SS edge *)
  pend_kind : edge array;        (* per FU: bound control dependence *)
  pend : node option array;
  mutable best : node option;
  mutable node_count : int;
}

let create ~n_fus ~n_regs =
  if n_fus < 1 then invalid_arg "Critpath.create: n_fus must be >= 1";
  if n_regs < 1 then invalid_arg "Critpath.create: n_regs must be >= 1";
  { n_fus;
    last = Array.make n_fus None;
    reg_def = Array.make n_regs None;
    cc_def = Array.make n_fus None;
    ss_def = Array.make n_fus None;
    pend_kind = Array.make n_fus Start;
    pend = Array.make n_fus None;
    best = None;
    node_count = 0 }

let n_fus t = t.n_fus

let reset t =
  Array.fill t.last 0 t.n_fus None;
  Array.fill t.reg_def 0 (Array.length t.reg_def) None;
  Array.fill t.cc_def 0 t.n_fus None;
  Array.fill t.ss_def 0 t.n_fus None;
  Array.fill t.pend 0 t.n_fus None;
  t.best <- None;
  t.node_count <- 0

(* ------------------------------------------------------------------ *)
(* A cycle's reads observe start-of-cycle state, so {!on_cycle} adds
   the cycle's nodes and bindings against the defs of earlier cycles
   and publishes what the cycle defined only after them. *)

(* A committing data op becomes a node with its tightest in-edge:
   program order, the control binding in effect, or a register def
   whose result had arrived. *)
let issue t (c : Cycle.t) ~fu =
  let cycle = c.cycle and latency = c.latency in
  let c_kind = ref Start and c_lat = ref 0 and c_dist = ref 0 in
  let c_parent = ref None in
  let consider kind lat producer =
    match producer with
    | None -> ()
    | Some p ->
      let d = p.dist + lat in
      if d > !c_dist then begin
        c_dist := d;
        c_kind := kind;
        c_lat := lat;
        c_parent := producer
      end
  in
  consider Seq 1 t.last.(fu);
  (match t.pend.(fu) with
   | None -> ()
   | Some _ as p ->
     consider t.pend_kind.(fu) ctrl_latency p;
     t.pend.(fu) <- None);
  let consider_reg r =
    if r >= 0 then
      match t.reg_def.(r) with
      | Some p when p.cycle + latency <= cycle ->
        consider Reg latency t.reg_def.(r)
      | Some _ | None -> ()
  in
  let r1 = c.r1.(fu) and r2 = c.r2.(fu) in
  consider_reg r1;
  if r2 <> r1 then consider_reg r2;
  let node =
    { e_kind = !c_kind; e_latency = !c_lat; parent = !c_parent;
      dist = !c_dist; cycle; fu; pc = c.old_pcs.(fu) }
  in
  t.last.(fu) <- Some node;
  t.node_count <- t.node_count + 1;
  match t.best with
  | Some b when b.dist >= node.dist -> ()
  | _ -> t.best <- Some node

(* The producer a barrier on [mask] waited for: the slowest for an ALL
   barrier; for an ANY barrier the earliest among the signals that were
   DONE at the evaluation, since only those could release it. *)
let barrier_producer t (c : Cycle.t) ~all mask =
  let best = ref None in
  for j = 0 to t.n_fus - 1 do
    if mask land (1 lsl j) <> 0 && (all || Sync.equal c.ss_before.(j) Sync.Done)
    then
      match t.ss_def.(j) with
      | None -> ()
      | Some p -> (
        match !best with
        | Some b when if all then b.dist >= p.dist else b.dist <= p.dist -> ()
        | Some _ | None -> best := Some p)
  done;
  !best

(* A conditional branch binds its control producers.  The branch
   evaluated at cycle c selects the fetch at c+1, so the binding
   constrains the stream's issues from c+1 on, never the op issued
   beside it; the binding in effect at the next issue is the decisive
   (releasing) evaluation's. *)
let bind_branch t c ~fu (cond : Cond.t) =
  let bind kind producer =
    t.pend_kind.(fu) <- kind;
    t.pend.(fu) <- producer
  in
  match cond with
  | Cond.Cc j -> bind Cc t.cc_def.(j)
  | Cond.Ss j -> bind Ss t.ss_def.(j)
  | Cond.All_ss mask -> bind Barrier (barrier_producer t c ~all:true mask)
  | Cond.Any_ss mask -> bind Barrier (barrier_producer t c ~all:false mask)
  | Cond.Always1 | Cond.Always2 -> ()

let on_cycle t (c : Cycle.t) =
  for fu = 0 to t.n_fus - 1 do
    (match c.cls.(fu) with
     | Commit -> issue t c ~fu
     | Nop_padding | Spin_ss | Spin_cc | Barrier_wait | Squashed | Fault_lost
     | Halted -> ());
    (* a halt's condition is [Always1], which binds nothing *)
    if c.was_live.(fu) then bind_branch t c ~fu c.cond.(c.lead.(fu))
  done;
  for fu = 0 to t.n_fus - 1 do
    (match c.cls.(fu) with
     | Commit when c.w.(fu) >= 0 -> t.reg_def.(c.w.(fu)) <- t.last.(fu)
     | _ -> ());
    if not (Sync.equal c.ss.(fu) c.ss_before.(fu)) then
      t.ss_def.(fu) <- t.last.(fu)
  done;
  (* a compare that committed defines its FU's condition code *)
  for k = 0 to c.commit_ccs - 1 do
    let fu = c.cc_fu.(k) in
    match c.cls.(fu) with
    | Commit -> t.cc_def.(fu) <- t.last.(fu)
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Results *)

let node_count t = t.node_count
let lower_bound t = match t.best with None -> 0 | Some b -> b.dist + 1

type step = {
  s_edge : edge;
  s_latency : int;
  s_slack : int;   (* realised cycles beyond the edge latency *)
  s_cycle : int;
  s_fu : int;
  s_pc : int;
}

let path t =
  let rec walk node acc =
    let slack =
      match node.parent with
      | None -> 0
      | Some p -> node.cycle - p.cycle - node.e_latency
    in
    let acc =
      { s_edge = node.e_kind; s_latency = node.e_latency; s_slack = slack;
        s_cycle = node.cycle; s_fu = node.fu; s_pc = node.pc }
      :: acc
    in
    match node.parent with None -> acc | Some p -> walk p acc
  in
  match t.best with None -> [] | Some b -> walk b []

let kinds = [ Seq; Reg; Cc; Ss; Barrier ]

type kind_sum = {
  k_edges : int;
  k_cycles : int;   (* edge latencies on the path *)
  k_slack : int;    (* realised slack attributed to the kind *)
}

let breakdown t =
  let edges = Array.make 6 0 and lat = Array.make 6 0
  and slack = Array.make 6 0 in
  let idx = function
    | Start -> 0 | Seq -> 1 | Reg -> 2 | Cc -> 3 | Ss -> 4 | Barrier -> 5
  in
  List.iter
    (fun s ->
      if s.s_edge <> Start then begin
        let i = idx s.s_edge in
        edges.(i) <- edges.(i) + 1;
        lat.(i) <- lat.(i) + s.s_latency;
        slack.(i) <- slack.(i) + s.s_slack
      end)
    (path t);
  List.map
    (fun k ->
      let i = idx k in
      (k, { k_edges = edges.(i); k_cycles = lat.(i); k_slack = slack.(i) }))
    kinds

(* The [realised - lower_bound] gap, decomposed exactly: cycles before
   the chain's first op issued, per-edge-kind slack along the chain,
   and cycles after its last op issued. *)
let rec chain_root n =
  match n.parent with None -> n | Some p -> chain_root p

let gap_parts t ~realised =
  match t.best with
  | None -> (realised, 0)
  | Some b -> ((chain_root b).cycle, realised - 1 - b.cycle)

let max_json_steps = 256

let to_json t ~realised =
  let open Ximd_json in
  let n = lower_bound t in
  let head, tail = gap_parts t ~realised in
  let steps = path t in
  Obj
    [ ("schema", String "ximd-critpath/1");
      ("lower_bound", Int n);
      ("realised", Int realised);
      ("gap", Int (realised - n));
      ("nodes", Int t.node_count);
      ("gap_head", Int head);
      ("gap_tail", Int tail);
      ( "breakdown",
        Obj
          (List.map
             (fun (k, s) ->
               ( edge_name k,
                 Obj
                   [ ("edges", Int s.k_edges);
                     ("cycles", Int s.k_cycles);
                     ("slack", Int s.k_slack) ] ))
             (breakdown t)) );
      ( "path",
        List
          (List.map
             (fun s ->
               Obj
                 [ ("cycle", Int s.s_cycle);
                   ("fu", Int s.s_fu);
                   ("pc", Int s.s_pc);
                   ("edge", String (edge_name s.s_edge));
                   ("latency", Int s.s_latency);
                   ("slack", Int s.s_slack) ])
             (List.filteri (fun i _ -> i < max_json_steps) steps)) );
      ("path_truncated", Bool (List.length steps > max_json_steps)) ]

let max_pp_steps = 32

let pp fmt t ~realised =
  let n = lower_bound t in
  let head, tail = gap_parts t ~realised in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "critical path: lower bound %d cycles, realised %d (gap %d)@," n
    realised (realised - n);
  if t.node_count = 0 then
    Format.fprintf fmt "  (no committing operations observed)@,"
  else begin
    Format.fprintf fmt "  edge kind  edges  bound cycles  slack@,";
    List.iter
      (fun (k, s) ->
        if s.k_edges > 0 then
          Format.fprintf fmt "  %-9s  %5d  %12d  %5d@," (edge_name k)
            s.k_edges s.k_cycles s.k_slack)
      (breakdown t);
    Format.fprintf fmt
      "  gap: %d before the chain, %d inside it, %d after@," head
      (realised - n - head - tail) tail;
    let steps = path t in
    let shown = min max_pp_steps (List.length steps) in
    Format.fprintf fmt "  chain (oldest first, %d of %d steps):@," shown
      (List.length steps);
    List.iteri
      (fun i s ->
        if i < max_pp_steps then
          Format.fprintf fmt "    cycle %5d  FU%-2d pc %02x  via %s@,"
            s.s_cycle s.s_fu s.s_pc (edge_name s.s_edge))
      steps
  end;
  Format.pp_close_box fmt ()
