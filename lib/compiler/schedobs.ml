(* Compile-time scheduler observability.  Collection is cheap and
   post-hoc (finished schedules are analysed, the schedulers' inner
   loops are not instrumented); when the collector is absent every hook
   site costs one match on [None]. *)

type pass_span = {
  ps_name : string;
  ps_t0 : float;
  ps_t1 : float;
  ps_minor : int;     (* minor-heap words allocated during the pass *)
}

type why =
  | Free
  | Dep of { pred : int; kind : Ddg.kind; latency : int }
  | Resource of { ready : int; delayed : int }

type placement = {
  op : int;
  row : int;
  slot : int;
  height : int;
  why : why;
}

type block_report = {
  b_label : string;
  b_width : int;
  b_ops : string array;
  b_edges : Ddg.edge list;
  b_rows : int;
  b_placements : placement list;
}

type res_class = {
  cls : string;
  cls_ops : int;
  cap : int;
  cls_mii : int;
}

type circuit = {
  c_ops : int list;
  c_latency : int;
  c_distance : int;
}

type bounds = {
  res_classes : res_class list;
  res_mii : int;
  rec_mii : int;
  circuit : circuit option;
}

type loop_edge = {
  e_src : int;
  e_dst : int;
  e_kind : Ddg.kind;
  e_latency : int;
  e_distance : int;
}

type outcome =
  | Placed
  | Unplaced of int
  | Violated of loop_edge

type attempt = {
  a_ii : int;
  a_outcome : outcome;
  a_t0 : float;
  a_t1 : float;
}

type binding =
  | Recurrence
  | Resource_bound
  | Balanced
  | Heuristic of int

type loop_report = {
  l_label : string;
  l_width : int;
  l_ops : string array;
  l_edges : loop_edge list;
  l_bounds : bounds;
  l_attempts : attempt list;
  l_ii : int;
  l_stages : int;
  l_times : int array;
  l_binding : binding;
}

type pack_placement = {
  p_thread : string;
  p_order : int;
  p_width : int;
  p_length : int;
  p_x : int;
  p_y : int;
  p_menu : int;
  p_bound : string;
}

type pack_report = {
  k_objective : string;
  k_n_fus : int;
  k_combos : int;
  k_exhaustive : bool;
  k_height : int;
  k_lower_bound : int;
  k_placements : pack_placement list;
}

type t = {
  clock : unit -> float;
  mutable src : string;
  mutable rev_passes : pass_span list;
  mutable rev_blocks : block_report list;
  mutable rev_loops : loop_report list;
  mutable rev_packs : pack_report list;
}

let create ?(clock = Sys.time) () =
  { clock; src = ""; rev_passes = []; rev_blocks = []; rev_loops = [];
    rev_packs = [] }

let set_source t name = t.src <- name
let now t = t.clock ()

let pass obs name f =
  match obs with
  | None -> f ()
  | Some t ->
    let m0 = Gc.minor_words () in
    let t0 = t.clock () in
    let r = f () in
    let t1 = t.clock () in
    let m1 = Gc.minor_words () in
    t.rev_passes <-
      { ps_name = name; ps_t0 = t0; ps_t1 = t1;
        ps_minor = int_of_float (m1 -. m0) }
      :: t.rev_passes;
    r

let render_op op = Format.asprintf "%a" Ir.pp_op op
let render_ops ops = Array.map render_op ops

(* ------------------------------------------------------------------ *)
(* Block provenance                                                    *)

let record_block t ~label ~width ~ops (sched : Listsched.t) =
  let n = Array.length ops in
  let g = sched.graph and heights = sched.heights in
  let slot_of = Array.make n 0 in
  Array.iter
    (fun row -> List.iteri (fun s i -> slot_of.(i) <- s) row)
    sched.rows;
  let placements =
    List.init n (fun i ->
      let r = sched.row_of.(i) in
      (* The binding predecessor: the edge whose [src row + latency]
         is largest (ties to the longer latency, so an anti edge never
         masks the flow edge that really pinned the row). *)
      let best =
        List.fold_left
          (fun acc (e : Ddg.edge) ->
            let b = sched.row_of.(e.src) + e.latency in
            match acc with
            | Some (be, bb)
              when bb > b || (bb = b && be.Ddg.latency >= e.latency) ->
              acc
            | Some _ | None -> Some (e, b))
          None (Ddg.preds g i)
      in
      let why =
        if r = 0 then Free
        else
          match best with
          | None -> Resource { ready = 0; delayed = r }
          | Some (e, b) ->
            if b = r then
              Dep { pred = e.src; kind = e.kind; latency = e.latency }
            else Resource { ready = b; delayed = r - b }
      in
      { op = i; row = r; slot = slot_of.(i); height = heights.(i); why })
  in
  t.rev_blocks <-
    { b_label = label;
      b_width = width;
      b_ops = render_ops ops;
      b_edges = Ddg.edges g;
      b_rows = Array.length sched.rows;
      b_placements = placements }
    :: t.rev_blocks

(* ------------------------------------------------------------------ *)
(* Loops and packs                                                     *)

let binding_of b ~ii =
  let lower = max b.res_mii b.rec_mii in
  if ii > lower then Heuristic (ii - lower)
  else if b.rec_mii > b.res_mii then Recurrence
  else if b.res_mii > b.rec_mii then Resource_bound
  else Balanced

let binding_name = function
  | Recurrence -> "recurrence-bound"
  | Resource_bound -> "resource-bound"
  | Balanced -> "recurrence+resource-bound"
  | Heuristic n -> Printf.sprintf "heuristic(+%d)" n

let record_loop t ~label ~width ~ops ~edges ~bounds ~attempts ~ii ~stages
    ~times =
  t.rev_loops <-
    { l_label = label;
      l_width = width;
      l_ops = render_ops ops;
      l_edges = edges;
      l_bounds = bounds;
      l_attempts = attempts;
      l_ii = ii;
      l_stages = stages;
      l_times = Array.copy times;
      l_binding = binding_of bounds ~ii }
    :: t.rev_loops

let record_pack t ~objective ~n_fus ~combos ~exhaustive ~height ~lower_bound
    ~placements =
  t.rev_packs <-
    { k_objective = objective;
      k_n_fus = n_fus;
      k_combos = combos;
      k_exhaustive = exhaustive;
      k_height = height;
      k_lower_bound = lower_bound;
      k_placements = placements }
    :: t.rev_packs

let pass_names t = List.rev_map (fun p -> p.ps_name) t.rev_passes
let blocks t = List.rev t.rev_blocks
let loops t = List.rev t.rev_loops
let packs t = List.rev t.rev_packs

(* The steady-state kernel implied by a loop's schedule: op indices per
   row modulo II, in issue order. *)
let kernel_rows (l : loop_report) =
  let rows = Array.make l.l_ii [] in
  Array.iteri
    (fun i time -> rows.(time mod l.l_ii) <- i :: rows.(time mod l.l_ii))
    l.l_times;
  Array.map List.rev rows

(* ------------------------------------------------------------------ *)
(* JSON export (logical facts only — byte-stable)                      *)

module J = Ximd_json

let ints xs = J.List (List.map (fun i -> J.Int i) xs)
let strings xs = J.List (List.map (fun s -> J.String s) xs)

let why_json = function
  | Free -> J.Obj [ ("kind", J.String "free") ]
  | Dep { pred; kind; latency } ->
    J.Obj
      [ ("kind", J.String "dep");
        ("pred", J.Int pred);
        ("edge", J.String (Ddg.kind_name kind));
        ("latency", J.Int latency) ]
  | Resource { ready; delayed } ->
    J.Obj
      [ ("kind", J.String "resource");
        ("ready", J.Int ready);
        ("delayed", J.Int delayed) ]

let placement_json p =
  J.Obj
    [ ("op", J.Int p.op);
      ("row", J.Int p.row);
      ("slot", J.Int p.slot);
      ("height", J.Int p.height);
      ("why", why_json p.why) ]

let ddg_edge_json (e : Ddg.edge) =
  J.Obj
    [ ("src", J.Int e.src);
      ("dst", J.Int e.dst);
      ("kind", J.String (Ddg.kind_name e.kind));
      ("latency", J.Int e.latency) ]

let loop_edge_json e =
  J.Obj
    [ ("src", J.Int e.e_src);
      ("dst", J.Int e.e_dst);
      ("kind", J.String (Ddg.kind_name e.e_kind));
      ("latency", J.Int e.e_latency);
      ("distance", J.Int e.e_distance) ]

let block_json b =
  J.Obj
    [ ("label", J.String b.b_label);
      ("width", J.Int b.b_width);
      ("rows", J.Int b.b_rows);
      ("ops", strings (Array.to_list b.b_ops));
      ("ddg", J.List (List.map ddg_edge_json b.b_edges));
      ("schedule", J.List (List.map placement_json b.b_placements)) ]

let res_class_json c =
  J.Obj
    [ ("class", J.String c.cls);
      ("ops", J.Int c.cls_ops);
      ("cap", J.Int c.cap);
      ("mii", J.Int c.cls_mii) ]

let circuit_json = function
  | None -> J.Null
  | Some c ->
    J.Obj
      [ ("ops", ints c.c_ops);
        ("latency", J.Int c.c_latency);
        ("distance", J.Int c.c_distance) ]

let attempt_json a =
  let head = [ ("ii", J.Int a.a_ii) ] in
  J.Obj
    (match a.a_outcome with
     | Placed -> head @ [ ("outcome", J.String "placed") ]
     | Unplaced op ->
       head @ [ ("outcome", J.String "unplaced"); ("op", J.Int op) ]
     | Violated e ->
       head @ [ ("outcome", J.String "violated"); ("edge", loop_edge_json e) ])

let loop_json l =
  let kernel_row_json r ops_in_row =
    J.Obj
      [ ("row", J.Int r);
        ("ops", ints ops_in_row);
        ("empty", J.Int (l.l_width - List.length ops_in_row)) ]
  in
  let occupied = Array.length l.l_times in
  let total = l.l_ii * l.l_width in
  let lower = max l.l_bounds.res_mii l.l_bounds.rec_mii in
  J.Obj
    [ ("label", J.String l.l_label);
      ("width", J.Int l.l_width);
      ("ops", strings (Array.to_list l.l_ops));
      ("edges", J.List (List.map loop_edge_json l.l_edges));
      ( "res",
        J.Obj
          [ ("mii", J.Int l.l_bounds.res_mii);
            ( "classes",
              J.List (List.map res_class_json l.l_bounds.res_classes) ) ] );
      ( "rec",
        J.Obj
          [ ("mii", J.Int l.l_bounds.rec_mii);
            ("circuit", circuit_json l.l_bounds.circuit) ] );
      ("attempts", J.List (List.map attempt_json l.l_attempts));
      ("ii", J.Int l.l_ii);
      ("stages", J.Int l.l_stages);
      ("times", ints (Array.to_list l.l_times));
      ( "kernel",
        J.List (List.mapi kernel_row_json (Array.to_list (kernel_rows l))) );
      ( "slots",
        J.Obj
          [ ("occupied", J.Int occupied);
            ("empty", J.Int (total - occupied));
            ("total", J.Int total) ] );
      ( "gap",
        J.Obj
          [ ("lower", J.Int lower);
            ("gap", J.Int (l.l_ii - lower));
            ("binding", J.String (binding_name l.l_binding)) ] ) ]

let pack_placement_json p =
  J.Obj
    [ ("thread", J.String p.p_thread);
      ("order", J.Int p.p_order);
      ("width", J.Int p.p_width);
      ("length", J.Int p.p_length);
      ("x", J.Int p.p_x);
      ("y", J.Int p.p_y);
      ("menu", J.Int p.p_menu);
      ("bound", J.String p.p_bound) ]

let pack_json k =
  J.Obj
    [ ("objective", J.String k.k_objective);
      ("n_fus", J.Int k.k_n_fus);
      ("combos", J.Int k.k_combos);
      ("exhaustive", J.Bool k.k_exhaustive);
      ("height", J.Int k.k_height);
      ("lower_bound", J.Int k.k_lower_bound);
      ("placements", J.List (List.map pack_placement_json k.k_placements)) ]

(* One block, loop or pack per line: each list renders as "[" then
   "\n<item>" per item, comma-separated. *)
let to_json t =
  let member = J.member_to_string in
  let rows key items =
    J.to_string (J.String key)
    ^ ":["
    ^ String.concat "," (List.map (fun item -> "\n" ^ J.to_string item) items)
    ^ "]"
  in
  "{"
  ^ String.concat ","
      [ member ("schema", J.String "ximd-sched/1");
        member ("source", J.String t.src) ]
  ^ ",\n"
  ^ String.concat ",\n"
      [ member ("passes", strings (pass_names t));
        rows "blocks" (List.map block_json (blocks t));
        rows "loops" (List.map loop_json (loops t));
        rows "packs" (List.map pack_json (packs t)) ]
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Chrome trace (the timing view)                                      *)

let to_chrome t =
  let passes = List.rev t.rev_passes in
  let base =
    List.fold_left
      (fun acc p -> min acc p.ps_t0)
      (List.fold_left
         (fun acc (l : loop_report) ->
           List.fold_left (fun acc a -> min acc a.a_t0) acc l.l_attempts)
         infinity (loops t))
      passes
  in
  let base = if base = infinity then 0.0 else base in
  let us x = int_of_float ((x -. base) *. 1e6) in
  let dur a b = max 0 (int_of_float ((b -. a) *. 1e6)) in
  let pass_slice p =
    J.Trace.slice ~tid:0 ~ts:(us p.ps_t0) ~dur:(dur p.ps_t0 p.ps_t1) p.ps_name
      [ ("minor_words", J.Int p.ps_minor) ]
  in
  let attempt_slice (l : loop_report) a =
    let outcome =
      match a.a_outcome with
      | Placed -> "placed"
      | Unplaced op -> Printf.sprintf "unplaced op %d" op
      | Violated e -> Printf.sprintf "violated %d->%d" e.e_src e.e_dst
    in
    J.Trace.slice ~tid:1 ~ts:(us a.a_t0) ~dur:(dur a.a_t0 a.a_t1)
      (Printf.sprintf "%s II=%d %s" l.l_label a.a_ii outcome)
      []
  in
  J.Trace.document
    ([ J.Trace.process_name ("xcc " ^ t.src);
       J.Trace.thread_name ~tid:0 "passes";
       J.Trace.thread_name ~tid:1 "loop scheduling attempts" ]
    @ List.map pass_slice passes
    @ List.concat_map
        (fun l -> List.map (attempt_slice l) l.l_attempts)
        (loops t))
    ~other_data:[]

(* ------------------------------------------------------------------ *)
(* Human report (logical facts only — golden-pinned)                   *)

(* Name a loop op by the vreg it defines ("v3") so circuits read like
   the dataflow they are; definition-free ops fall back to "op4". *)
let op_name ops i =
  if i < 0 || i >= Array.length ops then Printf.sprintf "op%d" i
  else
    let s = ops.(i) in
    match String.index_opt s ' ' with
    | Some j when j > 0 && (s.[0] = 'v' || s.[0] = 'p') ->
      String.sub s 0 j
    | _ -> Printf.sprintf "op%d" i

let circuit_desc ops c =
  let names = List.map (op_name ops) c.c_ops in
  let closed =
    match names with [] -> [] | first :: _ -> names @ [ first ]
  in
  String.concat " -> " closed

let pp_explain fmt t =
  let open Format in
  pp_open_vbox fmt 0;
  fprintf fmt "schedule explainability: %s@,"
    (if t.src = "" then "?" else t.src);
  (match pass_names t with
   | [] -> ()
   | names -> fprintf fmt "passes: %s@," (String.concat ", " names));
  List.iter
    (fun b ->
      fprintf fmt "@,block %s: %d ops in %d rows (width %d)@," b.b_label
        (Array.length b.b_ops) b.b_rows b.b_width;
      List.iter
        (fun p ->
          let why =
            match p.why with
            | Free -> "free"
            | Dep { pred; kind; latency } ->
              Printf.sprintf "%s edge from op %d (latency %d)"
                (Ddg.kind_name kind) pred latency
            | Resource { ready; delayed } ->
              Printf.sprintf "resource: deps ready at row %d, delayed %d"
                ready delayed
          in
          fprintf fmt "  op %d @@ row %d slot %d: [%s] — %s@," p.op p.row
            p.slot b.b_ops.(p.op) why)
        b.b_placements)
    (blocks t);
  List.iter
    (fun (l : loop_report) ->
      fprintf fmt "@,loop %s: II=%d (width %d) — %s@," l.l_label l.l_ii
        l.l_width
        (binding_name l.l_binding);
      fprintf fmt "  ResMII=%d (%s)@," l.l_bounds.res_mii
        (String.concat "; "
           (List.map
              (fun c ->
                Printf.sprintf "%s: %d ops / %d -> %d" c.cls c.cls_ops c.cap
                  c.cls_mii)
              l.l_bounds.res_classes));
      (match l.l_bounds.circuit with
       | Some c ->
         fprintf fmt "  RecMII=%d via circuit %s (latency %d + distance %d)@,"
           l.l_bounds.rec_mii (circuit_desc l.l_ops c) c.c_latency
           c.c_distance
       | None ->
         fprintf fmt "  RecMII=%d (no binding recurrence circuit)@,"
           l.l_bounds.rec_mii);
      fprintf fmt "  attempts: %s@,"
        (String.concat ", "
           (List.map
              (fun a ->
                match a.a_outcome with
                | Placed -> Printf.sprintf "II=%d placed" a.a_ii
                | Unplaced op ->
                  Printf.sprintf "II=%d unplaced op %d" a.a_ii op
                | Violated e ->
                  Printf.sprintf "II=%d violated %d->%d" a.a_ii e.e_src
                    e.e_dst)
              l.l_attempts));
      let occupied = Array.length l.l_times in
      let total = l.l_ii * l.l_width in
      fprintf fmt "  kernel: %d stage(s), %d/%d slots occupied@," l.l_stages
        occupied total;
      Array.iteri
        (fun r ops_in_row ->
          match ops_in_row with
          | [] -> fprintf fmt "    row %d: (empty)@," r
          | _ ->
            fprintf fmt "    row %d: %s (%d empty)@," r
              (String.concat "; "
                 (List.map (fun i -> l.l_ops.(i)) ops_in_row))
              (l.l_width - List.length ops_in_row))
        (kernel_rows l))
    (loops t);
  List.iter
    (fun k ->
      fprintf fmt "@,packing %s: %d FUs, height %d vs lower bound %d, %d combo(s)%s@,"
        k.k_objective k.k_n_fus k.k_height k.k_lower_bound k.k_combos
        (if k.k_exhaustive then " (exhaustive)" else " (heuristic pick)");
      List.iter
        (fun p ->
          fprintf fmt "  %d. %s %dx%d at (%d,%d) — %s@," p.p_order p.p_thread
            p.p_width p.p_length p.p_x p.p_y p.p_bound)
        k.k_placements)
    (packs t);
  pp_close_box fmt ()
