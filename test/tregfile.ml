(* The write-back queue's multiple-write rule: every register and memory
   result waits in one queue, and the commit that lands it reports
   every multiple write, the highest-numbered FU's value winning and the
   latest write on ties.  The cases drive the queue through [Session]
   and through [State] plus [Exec.exec_cycle]/[commit_cycle]; a qcheck
   property holds random write sequences to the old assoc-list staging
   as a reference model. *)

open Ximd_isa
open Cycle_helpers
module Gen = QCheck2.Gen

let halted_after cycles = function
  | Core.Run.Halted { cycles = c } when c = cycles -> ()
  | outcome ->
    Alcotest.failf "expected halted after %d cycles, got %a" cycles
      Core.Run.pp outcome

(* --- Hazard semantics ------------------------------------------------- *)

(* Under latency 3, results issued in the last two cycles before every
   FU halts land in the drain's first commit: here FU 5's write, then
   FU 1's and FU 3's, so the winner is the highest FU, not the latest
   write. *)
let test_three_writers_highest_wins () =
  let outcome, state =
    run ~result_latency:3
      ".fus 6\n\
      \  [5] mov #50, r12 | -> @1\n\
      \  [1] mov #10, r12 | halt\n\
      \  [3] mov #30, r12 | halt\n"
  in
  halted_after 3 outcome;
  check_hazards "all writers recorded, in issue order"
    [ (3, "multiple writes to r12 by FUs 5,1,3") ]
    state;
  check_reg "highest FU wins" state 12 50

(* Two writes by the same (highest) FU land in one commit: the later
   one wins. *)
let test_tie_latest_write_wins () =
  let outcome, state =
    run ~result_latency:3
      ".fus 8\n\
      \  [2] mov #1, r3 | -> @1\n\
      \  [7] mov #2, r3 | -> @1\n\
      \  [7] mov #3, r3 | halt\n"
  in
  halted_after 3 outcome;
  check_hazards "one hazard"
    [ (3, "multiple writes to r3 by FUs 2,7,7") ]
    state;
  check_reg "latest write of highest FU" state 3 3

let test_queue_count_and_clear () =
  let state =
    state_of
      ".fus 3\n\
      \  [0] mov #1, r1 | halt\n\
      \  [1] mov #1, r1 | halt\n\
      \  [2] mov #1, r2 | halt\n"
  in
  issue state 0;
  Alcotest.(check int) "queued incl. duplicates" 3
    (Core.State.in_flight_count state);
  commit state;
  Alcotest.(check int) "queue cleared" 0 (Core.State.in_flight_count state);
  Alcotest.(check int) "results committed" 3 state.scratch.record.commit_results;
  (* A second commit must be a no-op: no re-applied writes, no fresh
     hazards. *)
  Core.State.set_reg state 1 (Value.of_int 99);
  commit state;
  check_reg "no stale queued write" state 1 99;
  Alcotest.(check int) "nothing committed" 0 state.scratch.record.commit_results;
  Alcotest.(check int) "no extra hazard" 1
    (List.length (Core.State.hazards state))

(* Under the Raise policy a multiple write aborts the commit; the store
   due in the same cycle must not survive to land at the next one. *)
let test_aborted_commit_lands_nothing () =
  let state =
    state_of ~policy:M.Hazard.Raise
      ".fus 3\n\
      \  [0] mov #1, r1     | halt\n\
      \  [1] mov #2, r1     | halt\n\
      \  [2] store #77, #5  | halt\n"
  in
  issue state 0;
  (match Core.Exec.commit_cycle state with
   | exception M.Hazard.Error { hazard = M.Hazard.Multiple_reg_write _; _ } ->
     ()
   | () -> Alcotest.fail "expected the commit to raise");
  Alcotest.(check int) "queue emptied" 0 (Core.State.in_flight_count state);
  commit state;
  check_mem "the aborted store never lands" state 5 0;
  check_reg "the aborted register never lands" state 1 0

(* Under the Raise policy an issue-time hazard aborts its cycle too:
   the store FU1 queued and the condition code FU0 staged before FU2
   divided by zero must not land at the next commit. *)
let test_aborted_issue_lands_nothing () =
  let state =
    state_of ~policy:M.Hazard.Raise
      ".fus 3\n\
      \  [0] eq #1, #1         | halt\n\
      \  [1] store #77, #5     | halt\n\
      \  [2] idiv #1, #0, r1   | halt\n"
  in
  (match issue state 0 with
   | exception M.Hazard.Error { hazard = M.Hazard.Div_by_zero _; _ } -> ()
   | () -> Alcotest.fail "expected the issue to raise");
  Alcotest.(check int) "queue emptied" 0 (Core.State.in_flight_count state);
  commit state;
  check_mem "the aborted store never lands" state 5 0;
  Alcotest.(check bool) "the aborted condition code never lands" true
    (state.ccs.(0) = None)

(* The queue's worst case: every FU writes a register every cycle, each
   write duplicated, at the longest latency.  The queue then holds
   2 x n_fus x latency results just before the first commit that lands
   any; the run drains to 18 cycles, and the 11 commits that land
   results each report 8 double writes. *)
let test_queue_worst_case () =
  let n = 8 and rows = 12 in
  let src =
    Buffer.contents
      (let b = Buffer.create 1024 in
       Buffer.add_string b ".fus 8\n";
       for row = 0 to rows - 1 do
         Printf.bprintf b "l%d:\n" row;
         for fu = 0 to n - 1 do
           Printf.bprintf b "  [%d] mov #%d, r%d | %s\n" fu row (fu + 1)
             (if row = rows - 1 then "halt"
              else Printf.sprintf "-> l%d" (row + 1))
         done
       done;
       b)
  in
  let faults =
    M.Fault.create
      (List.concat_map
         (fun at ->
           List.init n (fun target ->
             { M.Fault.at; kind = M.Fault.Dup_write; target }))
         (List.init rows Fun.id))
  in
  let outcome, state = run ~result_latency:8 ~faults src in
  halted_after 18 outcome;
  Alcotest.(check int) "hazards" 88 (List.length (Core.State.hazards state));
  Alcotest.(check int) "queue drained" 0 (Core.State.in_flight_count state);
  check_reg "the last row's writes landed" state 8 (rows - 1)

(* --- Old staging as the qcheck reference model ------------------------ *)

module Ref_model = struct
  type staged = { fu : int; value : Value.t }

  type t = {
    regs : Value.t array;
    mem : Value.t array;
    mutable stage : ((bool * int) * staged list) list;
    mutable hazards : int;
  }

  let create () =
    { regs = Array.make Reg.count Value.zero;
      mem = Array.make 16 Value.zero;
      stage = [];
      hazards = 0 }

  let stage_write t ~fu target value =
    let prior =
      match List.assoc_opt target t.stage with None -> [] | Some l -> l
    in
    t.stage <-
      (target, { fu; value } :: prior) :: List.remove_assoc target t.stage

  let commit t =
    let apply ((is_mem, loc), writers) =
      let put v = if is_mem then t.mem.(loc) <- v else t.regs.(loc) <- v in
      match writers with
      | [] -> ()
      | [ { value; _ } ] -> put value
      | _ :: _ :: _ ->
        t.hazards <- t.hazards + 1;
        let winner =
          List.fold_left
            (fun (best : staged) w -> if w.fu > best.fu then w else best)
            (List.hd writers) (List.tl writers)
        in
        put winner.value
    in
    let stage = t.stage in
    t.stage <- [];
    List.iter apply stage
end

(* A write sequence: per cycle, each of 8 FUs idles, writes a register
   or stores to one of 16 words, and maybe has its write duplicated. *)
type op = Idle | Set of int * int | Store of int * int

let gen_op =
  Gen.(
    oneof
      [ pure Idle;
        map2 (fun r v -> Set (r, v)) (int_bound 31) (int_range (-999) 999);
        map2 (fun a v -> Store (a, v)) (int_bound 15) (int_range (-999) 999) ])

let gen_cycle = Gen.(list_repeat 8 (pair gen_op bool))
let gen_sequence = Gen.(list_size (int_range 1 8) gen_cycle)

let source cycles =
  let b = Buffer.create 512 in
  Buffer.add_string b ".fus 8\n";
  let last = List.length cycles - 1 in
  List.iteri
    (fun row ops ->
      Printf.bprintf b "l%d:\n" row;
      List.iteri
        (fun fu (op, _) ->
          Printf.bprintf b "  [%d] %s | %s\n" fu
            (match op with
             | Idle -> "nop"
             | Set (r, v) -> Printf.sprintf "mov #%d, r%d" v r
             | Store (a, v) -> Printf.sprintf "store #%d, #%d" v a)
            (if row = last then "halt" else Printf.sprintf "-> l%d" (row + 1)))
        ops)
    cycles;
  Buffer.contents b

let prop_queue_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"queue = assoc-list staging"
    ~print:source gen_sequence
    (fun cycles ->
      let faults =
        M.Fault.create
          (List.concat
             (List.mapi
                (fun at ops ->
                  List.concat
                    (List.mapi
                       (fun target (_, dup) ->
                         if dup then
                           [ { M.Fault.at; kind = M.Fault.Dup_write; target } ]
                         else [])
                       ops))
                cycles))
      in
      let _, state = run ~mem_words:16 ~faults (source cycles) in
      let model = Ref_model.create () in
      List.iter
        (fun ops ->
          List.iteri
            (fun fu (op, dup) ->
              let write target v =
                let v = Value.of_int v in
                Ref_model.stage_write model ~fu target v;
                if dup then Ref_model.stage_write model ~fu target v
              in
              match op with
              | Idle -> ()
              | Set (r, v) -> write (false, r) v
              | Store (a, v) -> write (true, a) v)
            ops;
          Ref_model.commit model)
        cycles;
      Array.iteri
        (fun i v ->
          if not (Value.equal (Core.State.reg state i) v) then
            QCheck2.Test.fail_reportf "r%d: got %s, reference has %s" i
              (Value.to_string (Core.State.reg state i))
              (Value.to_string v))
        model.regs;
      Array.iteri
        (fun a v ->
          if not (Value.equal (Core.State.mem_get state a) v) then
            QCheck2.Test.fail_reportf "M[%d]: got %s, reference has %s" a
              (Value.to_string (Core.State.mem_get state a))
              (Value.to_string v))
        model.mem;
      let got = List.length (Core.State.hazards state) in
      if got <> model.hazards then
        QCheck2.Test.fail_reportf "hazards: got %d, reference has %d" got
          model.hazards;
      true)

let suite =
  [ ( "regfile-staging",
      [ Alcotest.test_case "three writers, highest wins" `Quick
          test_three_writers_highest_wins;
        Alcotest.test_case "tie resolved to latest write" `Quick
          test_tie_latest_write_wins;
        Alcotest.test_case "queue count and clearing" `Quick
          test_queue_count_and_clear;
        Alcotest.test_case "aborted commit lands nothing" `Quick
          test_aborted_commit_lands_nothing;
        Alcotest.test_case "the queue's worst case fits" `Quick
          test_queue_worst_case;
        QCheck_alcotest.to_alcotest prop_queue_matches_reference;
        Alcotest.test_case "aborted issue lands nothing" `Quick
          test_aborted_issue_lands_nothing ] ) ]
