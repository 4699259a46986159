open Ximd_isa

(* What a conforming simulator must agree on.  Everything architecturally
   observable at the end of a run, plus a per-cycle control trace so a
   divergence can be localised to the first cycle where two simulators
   disagree.  The record is produced both by the reference interpreter
   ({!Interp.run}) and by the optimised engine (via {!Ximd_gen.Diff}),
   and compared field by field. *)

type row = {
  cycle : int;
  pcs : int option array;  (* per FU; [None] = halted at top of cycle *)
  ccs : bool option array;
  sss : Sync.t array;
  ssets : int list list;
      (* the partition in effect: members ascending, SSETs ordered by
         lowest member *)
}

type counts = {
  cycles : int;
  data_ops : int;
  nops : int;
  halted_slots : int;
  spin_slots : int;
  cond_branches : int;
  max_streams : int;
}

type t = {
  outcome : Ximd_core.Run.outcome;
  registers : Value.t array;  (* all 256, final *)
  memory : (int * Value.t) list;  (* non-zero words, ascending address *)
  io_out : (int * (int * Value.t) list) list;
      (* port -> (cycle, value) write log, ports with output only *)
  hazards : (int * string) list;  (* (cycle, rendered hazard), in order *)
  trace : row list;  (* one row per executed cycle, oldest first *)
  counts : counts;  (* the paper's run counters *)
}

let outcome_string (o : Ximd_core.Run.outcome) =
  match o with
  | Ximd_core.Run.Halted { cycles } -> Printf.sprintf "halted/%d" cycles
  | Ximd_core.Run.Fuel_exhausted { cycles } ->
    Printf.sprintf "fuel-exhausted/%d" cycles
  | Ximd_core.Run.Deadlocked { cycles; _ } ->
    Printf.sprintf "deadlocked/%d" cycles
  (* the reference interpreter runs without a budget, but the type is
     total so observations of budgeted engine runs still render *)
  | Ximd_core.Run.Budget_exceeded { cycles; _ } ->
    Printf.sprintf "budget-exceeded/%d" cycles

let row_equal a b =
  a.cycle = b.cycle
  && Array.for_all2 (Option.equal Int.equal) a.pcs b.pcs
  && Array.for_all2 (Option.equal Bool.equal) a.ccs b.ccs
  && Array.for_all2 Sync.equal a.sss b.sss
  && List.equal (List.equal Int.equal) a.ssets b.ssets

let counts_diff a b =
  List.find_opt
    (fun (_, x, y) -> x <> y)
    [ ("cycles", a.cycles, b.cycles);
      ("data_ops", a.data_ops, b.data_ops);
      ("nops", a.nops, b.nops);
      ("halted_slots", a.halted_slots, b.halted_slots);
      ("spin_slots", a.spin_slots, b.spin_slots);
      ("cond_branches", a.cond_branches, b.cond_branches);
      ("max_streams", a.max_streams, b.max_streams) ]

let equal a b =
  outcome_string a.outcome = outcome_string b.outcome
  && Array.for_all2 Value.equal a.registers b.registers
  && List.equal
       (fun (x, v) (y, w) -> x = y && Value.equal v w)
       a.memory b.memory
  && List.equal
       (fun (p, l) (q, m) ->
         p = q
         && List.equal
              (fun (c, v) (d, w) -> c = d && Value.equal v w)
              l m)
       a.io_out b.io_out
  && List.equal (fun (c, h) (d, i) -> c = d && h = i) a.hazards b.hazards
  && List.equal row_equal a.trace b.trace
  && Option.is_none (counts_diff a.counts b.counts)

let pp_row fmt r =
  Format.fprintf fmt "cycle %-3d pc=[%s] cc=[%s] ss=[%s] ssets=%s" r.cycle
    (String.concat " "
       (Array.to_list
          (Array.map
             (function Some pc -> Printf.sprintf "%02x" pc | None -> "--")
             r.pcs)))
    (String.concat ""
       (Array.to_list
          (Array.map
             (function Some true -> "T" | Some false -> "F" | None -> "X")
             r.ccs)))
    (String.concat ""
       (Array.to_list
          (Array.map
             (fun s -> if Sync.equal s Sync.Done then "D" else "B")
             r.sss)))
    (String.concat ""
       (List.map
          (fun sset ->
            "{" ^ String.concat "," (List.map string_of_int sset) ^ "}")
          r.ssets))

(* Byte-stable plain-text summary: the sidecar format of the conformance
   suites.  Deliberately omits the trace (which scales with cycle count)
   and the counts — both are compared in lockstep, the sidecar pins the
   final state. *)
let summary t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "outcome: %s\n" (outcome_string t.outcome);
  Array.iteri
    (fun i v ->
      if not (Value.equal v Value.zero) then
        add "reg r%d = %ld\n" i (Value.to_int32 v))
    t.registers;
  List.iter
    (fun (addr, v) -> add "mem[%d] = %ld\n" addr (Value.to_int32 v))
    t.memory;
  List.iter
    (fun (port, writes) ->
      List.iter
        (fun (cycle, v) ->
          add "out[%d] @%d = %ld\n" port cycle (Value.to_int32 v))
        writes)
    t.io_out;
  List.iter (fun (cycle, h) -> add "hazard @%d: %s\n" cycle h) t.hazards;
  Buffer.contents buf
