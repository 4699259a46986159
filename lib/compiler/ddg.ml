type kind = Flow | Anti | Output | Mem | Control

type edge = {
  src : int;
  dst : int;
  latency : int;
  kind : kind;
}

type t = {
  n : int;
  edges : edge list;
  preds_by : edge list array;
  succs_by : edge list array;
}

(* [rev_edges] lists the edges last first, so prepending each one
   leaves every node's lists in the given order. *)
let of_rev_edges n rev_edges =
  let preds_by = Array.make n [] and succs_by = Array.make n [] in
  List.iter
    (fun e ->
      preds_by.(e.dst) <- e :: preds_by.(e.dst);
      succs_by.(e.src) <- e :: succs_by.(e.src))
    rev_edges;
  { n; edges = List.rev rev_edges; preds_by; succs_by }

let of_edges n edges = of_rev_edges n (List.rev edges)

let build ?(latency = 1) ops =
  if latency < 1 then invalid_arg "Ddg.build: latency < 1";
  let n = Array.length ops in
  let edges = ref [] in
  let add src dst latency kind =
    if src <> dst then edges := { src; dst; latency; kind } :: !edges
  in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      (* register dependencies, i before j in program order *)
      (match Ir.defs ops.(i) with
       | Some d ->
         if List.mem d (Ir.uses ops.(j)) then add i j latency Flow;
         (match Ir.defs ops.(j) with
          | Some d' when d = d' -> add i j 1 Output
          | Some _ | None -> ())
       | None -> ());
      (match Ir.defs ops.(j) with
       | Some d -> if List.mem d (Ir.uses ops.(i)) then add i j 0 Anti
       | None -> ());
      (* memory dependencies: conservative, no address analysis *)
      if Ir.is_mem ops.(i) && Ir.is_mem ops.(j)
         && (Ir.is_store ops.(i) || Ir.is_store ops.(j))
      then begin
        let latency = if Ir.is_store ops.(i) then latency else 0 in
        add i j latency Mem
      end
    done
  done;
  of_rev_edges n !edges

let edges g = g.edges
let preds g i = g.preds_by.(i)
let succs g i = g.succs_by.(i)

(* Longest path to a sink, memoised depth first, so edges may run in
   either direction of the node order (a trace region's do); a path of
   more than [n] edges can only go round a cycle. *)
let heights g =
  let h = Array.make g.n (-1) in
  let rec height depth i =
    if depth > g.n then invalid_arg "Ddg.heights: the graph has a cycle";
    if h.(i) < 0 then
      h.(i) <-
        List.fold_left
          (fun acc e -> max acc (e.latency + height (depth + 1) e.dst))
          0 g.succs_by.(i);
    h.(i)
  in
  for i = 0 to g.n - 1 do
    ignore (height 0 i)
  done;
  h

let critical_path g =
  Array.fold_left max 0 (heights g)

let kind_name = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "out"
  | Mem -> "mem"
  | Control -> "ctl"

let pp fmt g =
  Format.fprintf fmt "@[<v>%d nodes" g.n;
  List.iter
    (fun e ->
      Format.fprintf fmt "@,%d -%s(%d)-> %d" e.src (kind_name e.kind)
        e.latency e.dst)
    g.edges;
  Format.fprintf fmt "@]"
