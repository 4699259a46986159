open Ximd_isa

type row = {
  cycle : int;
  pcs : int option array;
  ccs : bool option array;
  sss : Sync.t array;
  partition : Partition.t;
}

type t = {
  rows : row Queue.t; (* oldest first, at most [limit] long *)
  mutable dropped : int;
  limit : int; (* max_int = unbounded *)
}

let create ?limit () =
  let limit =
    match limit with
    | None -> max_int
    | Some l ->
      if l < 1 then invalid_arg "Tracer.create: limit must be positive";
      l
  in
  { rows = Queue.create (); dropped = 0; limit }

(* Bounded tracers keep the newest [limit] rows: the tail of a wedged or
   budget-busted run is the diagnostic part.  Dropping the oldest row
   is one pop, so a bounded tracer costs what an unbounded one does. *)
let record t row =
  if Queue.length t.rows = t.limit then begin
    ignore (Queue.take t.rows);
    t.dropped <- t.dropped + 1
  end;
  Queue.push row t.rows

let rows t = List.of_seq (Queue.to_seq t.rows)
let length t = Queue.length t.rows
let dropped t = t.dropped

let snapshot (state : State.t) =
  let n = State.n_fus state in
  { cycle = state.cycle;
    pcs =
      Array.init n (fun i ->
        if state.halted.(i) then None else Some state.pcs.(i));
    ccs = Array.copy state.ccs;
    sss = Array.copy state.sss;
    partition = state.partition }

let cc_string ccs =
  String.concat ""
    (Array.to_list
       (Array.map
          (function Some true -> "T" | Some false -> "F" | None -> "X")
          ccs))

let pc_string = function
  | Some pc -> Printf.sprintf "%02x:" pc
  | None -> " - "

let pp_row fmt row =
  Format.fprintf fmt "Cycle %-3d" row.cycle;
  Array.iter (fun pc -> Format.fprintf fmt "  %s" (pc_string pc)) row.pcs;
  Format.fprintf fmt "  %s  %s" (cc_string row.ccs)
    (Partition.to_string row.partition)

let pp_figure10 ?(comments = []) fmt t =
  let rows = rows t in
  let n =
    match rows with [] -> 0 | row :: _ -> Array.length row.pcs
  in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "%-9s" "Cycle";
  for i = 0 to n - 1 do
    Format.fprintf fmt "  FU%-2d" i
  done;
  Format.fprintf fmt "  %-8s  %-20s  %s@," "CondCode" "Partition" "Comment";
  List.iter
    (fun row ->
      Format.fprintf fmt "Cycle %-3d" row.cycle;
      Array.iter (fun pc -> Format.fprintf fmt "  %s " (pc_string pc)) row.pcs;
      let comment =
        match List.assoc_opt row.cycle comments with
        | Some c -> c
        | None -> ""
      in
      Format.fprintf fmt "  %-8s  %-20s  %s@," (cc_string row.ccs)
        (Partition.to_string row.partition)
        comment)
    rows;
  Format.pp_close_box fmt ()
