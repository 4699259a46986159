open Ximd_isa
module Program = Ximd_core.Program
module Config = Ximd_core.Config

(* Greedy divergent-program minimiser.

   Given a case and a predicate (normally "Diff.check still diverges"),
   repeatedly applies structure-shrinking transformations — delete a
   row, drop the highest FU column, replace a data op with a nop, a
   control op with a halt, an operand with zero, a sync value with Busy
   — keeping any candidate that is still a valid program and still
   satisfies the predicate, until no transformation applies.  The
   result is a local minimum: every single further simplification makes
   the divergence disappear, which is exactly what makes the repro
   readable.

   The predicate is called on valid candidates only.  Termination:
   every accepted candidate strictly decreases the total size measure
   (rows, FUs, non-nop data ops, non-halt controls, non-zero operands,
   Done syncs), which is a well-founded order. *)

type rows = Parcel.t list list

let rows_of_program p : rows =
  List.init (Program.length p) (fun i -> Array.to_list (Program.row p i))

let program_of_rows ~n_fus (rows : rows) = Program.of_rows ~n_fus rows

let map_targets f (c : Control.t) =
  match c with
  | Control.Halt -> Control.Halt
  | Control.Branch { cond; t1; t2 } ->
    let m = function
      | Control.Addr a -> Control.Addr (f a)
      | Control.Fallthrough -> Control.Fallthrough
    in
    Control.Branch { cond; t1 = m t1; t2 = m t2 }

let map_parcel_control f (p : Parcel.t) = { p with Parcel.control = f p.control }

(* --- The transformation set ------------------------------------------- *)

(* Each transformation maps a case to a list of candidate cases, most
   aggressive first.  Candidates need not be valid; [minimise] filters
   through [Program.validate]. *)

let with_rows (c : Proggen.case) rows =
  let n_fus = c.Proggen.config.Config.n_fus in
  { c with Proggen.program = program_of_rows ~n_fus rows }

(* Delete row [i], redirecting branch targets: targets before [i] keep
   their address, targets after shift down by one, targets at [i] point
   at its successor (clamped into the shortened program). *)
let delete_row (c : Proggen.case) =
  let rows = rows_of_program c.Proggen.program in
  let len = List.length rows in
  if len <= 1 then []
  else
    List.init len (fun i ->
      let remap a =
        let a = if a < i then a else if a > i then a - 1 else a in
        min a (len - 2)
      in
      let rows' =
        List.filteri (fun j _ -> j <> i) rows
        |> List.map (List.map (map_parcel_control (map_targets remap)))
      in
      with_rows c rows')

(* Drop the highest FU column.  Conditions referencing the dropped FU
   keep the candidate only if the mask stays non-empty; [Cc]/[Ss] of the
   dropped FU reject the candidate outright (remapping would change
   which signal the branch reads, hiding the divergence more often than
   not).  Distributed memory drops its last words as needed to split
   evenly among the FUs left (the banks move either way). *)
let drop_fu (c : Proggen.case) =
  let config = c.Proggen.config in
  let n = config.Config.n_fus in
  if n <= 1 then []
  else
    let dropped = n - 1 in
    let ok = ref true in
    let fix_cond (cond : Cond.t) =
      match cond with
      | Cond.Always1 | Cond.Always2 -> cond
      | Cond.Cc j | Cond.Ss j ->
        if j >= dropped then ok := false;
        cond
      | Cond.All_ss mask ->
        let mask = mask land lnot (1 lsl dropped) in
        if mask = 0 then ok := false;
        Cond.All_ss mask
      | Cond.Any_ss mask ->
        let mask = mask land lnot (1 lsl dropped) in
        if mask = 0 then ok := false;
        Cond.Any_ss mask
    in
    let fix_control (ctl : Control.t) =
      match ctl with
      | Control.Halt -> ctl
      | Control.Branch { cond; t1; t2 } ->
        Control.Branch { cond = fix_cond cond; t1; t2 }
    in
    let rows =
      List.map
        (fun row ->
          List.filteri (fun fu _ -> fu < dropped) row
          |> List.map (map_parcel_control fix_control))
        (rows_of_program c.Proggen.program)
    in
    if not !ok then []
    else
      let mem_organisation, mem_words =
        match config.Config.mem_organisation with
        | Ximd_machine.Memory.Shared ->
          (Ximd_machine.Memory.Shared, config.Config.mem_words)
        | Ximd_machine.Memory.Distributed _ ->
          ( Ximd_machine.Memory.Distributed { n_fus = dropped },
            config.Config.mem_words - (config.Config.mem_words mod dropped) )
      in
      let config =
        Config.make ~n_fus:dropped ~mem_words
          ~mem_organisation ~n_ports:config.Config.n_ports
          ~hazard_policy:config.Config.hazard_policy
          ~max_cycles:config.Config.max_cycles
          ~sequencer:config.Config.sequencer
          ~result_latency:config.Config.result_latency ()
      in
      [ { Proggen.program = program_of_rows ~n_fus:dropped rows; config } ]

(* Per-parcel simplifications: one candidate per changed parcel. *)
let parcel_candidates (c : Proggen.case) =
  let rows = rows_of_program c.Proggen.program in
  let candidates = ref [] in
  let emit ri fi p' =
    let rows' =
      List.mapi
        (fun i row ->
          if i <> ri then row
          else List.mapi (fun j p -> if j <> fi then p else p') row)
        rows
    in
    candidates := with_rows c rows' :: !candidates
  in
  List.iteri
    (fun ri row ->
      List.iteri
        (fun fi (p : Parcel.t) ->
          (* data op -> nop *)
          if p.Parcel.data <> Parcel.Dnop then
            emit ri fi { p with Parcel.data = Parcel.Dnop };
          (* control -> halt *)
          (match p.Parcel.control with
           | Control.Halt -> ()
           | Control.Branch { cond; t1; t2 } ->
             emit ri fi { p with Parcel.control = Control.Halt };
             (* conditional -> unconditional, keeping either arm *)
             if cond <> Cond.Always1 then
               emit ri fi
                 { p with
                   Parcel.control = Control.Branch { cond = Cond.Always1; t1; t2 }
                 };
             if t1 <> t2 then
               emit ri fi
                 { p with Parcel.control = Control.Branch { cond; t1; t2 = t1 } });
          (* sync Done -> Busy *)
          if Sync.equal p.Parcel.sync Sync.Done then
            emit ri fi { p with Parcel.sync = Sync.Busy };
          (* operands -> zero *)
          let zero = Operand.Imm Value.zero in
          let simplify_operand o = if o = zero then None else Some zero in
          let with_data d = { p with Parcel.data = d } in
          match p.Parcel.data with
          | Parcel.Dnop -> ()
          | Parcel.Dbin { op; a; b; d } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dbin { op; a; b; d })))
              (simplify_operand a);
            Option.iter
              (fun b -> emit ri fi (with_data (Parcel.Dbin { op; a; b; d })))
              (simplify_operand b)
          | Parcel.Dun { op; a; d } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dun { op; a; d })))
              (simplify_operand a)
          | Parcel.Dcmp { op; a; b } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dcmp { op; a; b })))
              (simplify_operand a);
            Option.iter
              (fun b -> emit ri fi (with_data (Parcel.Dcmp { op; a; b })))
              (simplify_operand b)
          | Parcel.Dload { a; b; d } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dload { a; b; d })))
              (simplify_operand a);
            Option.iter
              (fun b -> emit ri fi (with_data (Parcel.Dload { a; b; d })))
              (simplify_operand b)
          | Parcel.Dstore { a; b } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dstore { a; b })))
              (simplify_operand a);
            Option.iter
              (fun b -> emit ri fi (with_data (Parcel.Dstore { a; b })))
              (simplify_operand b)
          | Parcel.Din { port; d } ->
            Option.iter
              (fun port -> emit ri fi (with_data (Parcel.Din { port; d })))
              (simplify_operand port)
          | Parcel.Dout { a; port } ->
            Option.iter
              (fun a -> emit ri fi (with_data (Parcel.Dout { a; port })))
              (simplify_operand a);
            Option.iter
              (fun port -> emit ri fi (with_data (Parcel.Dout { a; port })))
              (simplify_operand port))
        row)
    rows;
  List.rev !candidates

let transformations = [ delete_row; drop_fu; parcel_candidates ]

(* --- The greedy loop -------------------------------------------------- *)

let valid (c : Proggen.case) =
  match Program.validate c.Proggen.program c.Proggen.config with
  | Ok () -> true
  | Error _ -> false

(* Total size measure; strictly decreased by every transformation. *)
let size (c : Proggen.case) =
  let p = c.Proggen.program in
  let total = ref (Program.length p * 10 + Program.n_fus p * 10) in
  for i = 0 to Program.length p - 1 do
    Array.iter
      (fun (parcel : Parcel.t) ->
        if parcel.Parcel.data <> Parcel.Dnop then incr total;
        (match parcel.Parcel.control with
         | Control.Halt -> ()
         | Control.Branch { cond; t1; t2 } ->
           incr total;
           if cond <> Cond.Always1 then incr total;
           if t1 <> t2 then incr total);
        if Sync.equal parcel.Parcel.sync Sync.Done then incr total)
      (Program.row p i)
  done;
  !total

let minimise ~predicate (c : Proggen.case) =
  let steps = ref 0 in
  let rec loop current =
    incr steps;
    if !steps > 10_000 then current
    else
      let candidate =
        List.find_map
          (fun transform ->
            List.find_opt
              (fun cand ->
                size cand < size current && valid cand && predicate cand)
              (transform current))
          transformations
      in
      match candidate with None -> current | Some next -> loop next
  in
  loop c

let parcels (c : Proggen.case) =
  Program.length c.Proggen.program * Program.n_fus c.Proggen.program
