(* The finished cycle: the one record every observer reads.  The engine
   does its per-cycle work in it ([State.scratch] holds it), so a cycle
   reaches the sink with nothing copied; the sink hands it to each of
   its consumers once, in {!Sink.on_cycle}.

   Per-FU arrays are indexed by FU; those marked "per group" by the
   group's leader, the lowest FU of the FUs one sequencer step served.
   The last five arrays hold what only the program's image knows; the
   engine fills them only when a sink is attached, and a state without
   one has them empty. *)

open Ximd_isa

type t = {
  mutable cycle : int;
  mutable fu_streams : bool;
      (* each issuing FU is a stream of its own (per-FU sequencers);
         otherwise each running group is one, named by its leader *)
  mutable live_streams : int;  (* SSETs with a live FU after the cycle *)
  latency : int;               (* the configuration's result latency *)
  was_live : bool array;       (* issuing at the start of the cycle *)
  lead : int array;            (* the FU's group leader, -1: none *)
  old_pcs : int array;         (* PCs at the start of the cycle *)
  next_pc : int array;         (* per group: its next PC, -1: it halts *)
  spun : bool array;           (* per group: its branch re-selected its PC *)
  ss_before : Sync.t array;    (* levels the branch evaluation read *)
  ss : Sync.t array;           (* the machine's own levels, after *)
  cc_fu : int array;           (* condition codes, staged and then... *)
  cc_val : bool array;
  mutable commit_results : int;  (* results the last commit landed... *)
  mutable commit_ccs : int;
      (* ...of which condition codes: the first [commit_ccs] entries of
         [cc_fu]/[cc_val] *)
  cls : Account.cls array;     (* the slot's class *)
  cond : Cond.t array;         (* per group: its branch condition *)
  r1 : int array;              (* a committing op's source registers... *)
  r2 : int array;              (* ...(-1: an immediate or none)... *)
  w : int array;               (* ...and the one it writes (-1: none) *)
}

(* [ss] is the machine's sync array itself, so it is never copied. *)
let create ~ss ~latency ~observed =
  let n = Array.length ss in
  let observed_n = if observed then n else 0 in
  { cycle = 0;
    fu_streams = true;
    live_streams = 0;
    latency;
    was_live = Array.make n false;
    lead = Array.make n (-1);
    old_pcs = Array.make n 0;
    next_pc = Array.make n 0;
    spun = Array.make n false;
    ss_before = Array.make n Sync.Busy;
    ss;
    cc_fu = Array.make n 0;
    cc_val = Array.make n false;
    commit_results = 0;
    commit_ccs = 0;
    cls = Array.make observed_n Account.Halted;
    cond = Array.make observed_n Cond.Always1;
    r1 = Array.make observed_n (-1);
    r2 = Array.make observed_n (-1);
    w = Array.make observed_n (-1) }
