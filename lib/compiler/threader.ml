open Ximd_isa

type wire = {
  from_thread : string;
  from_result : int;
  to_thread : string;
  to_param : int;
}

type placement = {
  thread : string;
  level : int;
  columns : int * int;
  entry : int;
  param_regs : (Ir.vreg * Reg.t) list;
  result_regs : (Ir.vreg * Reg.t) list;
}

type t = {
  program : Ximd_core.Program.t;
  n_fus : int;
  placements : placement list;
  levels : string list list;
  wires : wire list;
}

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Level assignment: longest path from sources in the dependence DAG.  *)

let levels names deps =
  let level = Hashtbl.create 17 in
  let rec assign ~visiting name =
    if List.mem name visiting then Error "dependence cycle among threads"
    else
      match Hashtbl.find_opt level name with
      | Some l -> Ok l
      | None ->
        let preds =
          List.filter_map
            (fun (a, b) -> if b = name then Some a else None)
            deps
        in
        let rec max_pred acc = function
          | [] -> Ok acc
          | p :: rest ->
            let* lp = assign ~visiting:(name :: visiting) p in
            max_pred (max acc (lp + 1)) rest
        in
        let* l = max_pred 0 preds in
        Hashtbl.replace level name l;
        Ok l
  in
  let rec all = function
    | [] -> Ok ()
    | name :: rest ->
      let* _ = assign ~visiting:[] name in
      all rest
  in
  let* () = all names in
  let max_level = Hashtbl.fold (fun _ l acc -> max acc l) level 0 in
  Ok
    (List.init (max_level + 1) (fun l ->
       List.filter (fun name -> Hashtbl.find level name = l) names))

(* ------------------------------------------------------------------ *)
(* Parcel relocation: shift addresses, condition-code columns, and turn
   Return halts into branches to the level barrier.                    *)

let relocate_control ~code_base ~col_offset ~barrier control =
  match control with
  | Control.Halt -> Ok (Control.goto barrier)
  | Control.Branch { cond; t1; t2 } ->
    let* cond =
      match cond with
      | Cond.Always1 | Cond.Always2 -> Ok cond
      | Cond.Cc j -> Ok (Cond.Cc (j + col_offset))
      | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
        Error "compiled thread code must not use sync conditions"
    in
    let shift = function
      | Control.Addr a -> Ok (Control.Addr (a + code_base))
      | Control.Fallthrough ->
        Error "compiled thread code must not use fall-through"
    in
    let* t1 = shift t1 in
    let* t2 = shift t2 in
    Ok (Control.Branch { cond; t1; t2 })

(* A row no FU ever reaches. *)
let unreachable_parcel addr = Parcel.nop (Control.goto addr)

(* ------------------------------------------------------------------ *)

type prepared = {
  p_name : string;
  p_level : int;
  p_width : int;
  p_compiled : Codegen.compiled;
  p_glue : (Reg.t * Reg.t) list;  (* dst param reg <- src result reg *)
}

let thread_named threads name =
  List.find_opt (fun (f : Ir.func) -> f.name = name) threads

let default_width ~n_fus ~threads_in_level =
  max 1 (min 4 (n_fus / threads_in_level))

let build ?(n_fus = 8) ?(widths = []) ~threads ~deps ~wires () =
  let names = List.map (fun (f : Ir.func) -> f.name) threads in
  let find_thread = thread_named threads in
  (* Wires imply dependences. *)
  let deps =
    deps
    @ List.map (fun w -> (w.from_thread, w.to_thread)) wires
  in
  let unknown =
    List.filter
      (fun n -> find_thread n = None)
      (List.concat_map (fun (a, b) -> [ a; b ]) deps)
  in
  if unknown <> [] then
    Error
      [ "unknown thread(s) in dependences: "
        ^ String.concat ", " (List.sort_uniq compare unknown) ]
  else
    match levels names deps with
    | Error msg -> Error [ msg ]
    | Ok levels ->
      (* Compile each thread with a private register range. *)
      let reg_base = ref 0 in
      let rec prepare acc = function
        | [] -> Ok (List.rev acc)
        | (func : Ir.func) :: rest ->
          let level =
            match
              List.find_index (fun l -> List.mem func.name l) levels
            with
            | Some l -> l
            | None -> 0
          in
          let width =
            match List.assoc_opt func.name widths with
            | Some w -> w
            | None ->
              default_width ~n_fus
                ~threads_in_level:(List.length (List.nth levels level))
          in
          let* compiled =
            Result.map_error
              (fun es -> List.map (fun e -> func.name ^ ": " ^ e) es)
              (Codegen.compile ~width ~reg_base:!reg_base func)
          in
          reg_base := !reg_base + compiled.used_regs;
          prepare
            ({ p_name = func.name; p_level = level; p_width = width;
               p_compiled = compiled; p_glue = [] }
             :: acc)
            rest
      in
      let* prepared = prepare [] threads in
      (* Resolve wires into glue moves. *)
      let find_prepared name =
        List.find (fun p -> p.p_name = name) prepared
      in
      let level_of name = (find_prepared name).p_level in
      let rec resolve_wires acc = function
        | [] -> Ok acc
        | w :: rest ->
          if find_thread w.from_thread = None || find_thread w.to_thread = None
          then Error [ "wire names unknown thread" ]
          else if level_of w.from_thread >= level_of w.to_thread then
            Error
              [ Printf.sprintf "wire %s -> %s does not cross levels forward"
                  w.from_thread w.to_thread ]
          else begin
            let producer = (find_prepared w.from_thread).p_compiled in
            let consumer = (find_prepared w.to_thread).p_compiled in
            match
              ( List.nth_opt producer.result_regs w.from_result,
                List.nth_opt consumer.param_regs w.to_param )
            with
            | Some (_, src), Some (_, dst) ->
              resolve_wires ((w.to_thread, (dst, src)) :: acc) rest
            | _ -> Error [ "wire indexes out of range" ]
          end
      in
      let* glue_wires = resolve_wires [] wires in
      let prepared =
        List.map
          (fun p ->
            { p with
              p_glue =
                List.filter_map
                  (fun (name, g) -> if name = p.p_name then Some g else None)
                  glue_wires })
          prepared
      in
      (* Rebind over the glue-carrying list: layout must count glue
         rows. *)
      let find_prepared name =
        List.find (fun p -> p.p_name = name) prepared
      in
      (* Column assignment per level. *)
      let rec check_levels = function
        | [] -> Ok ()
        | level_names :: rest ->
          let total =
            List.fold_left
              (fun acc n -> acc + (find_prepared n).p_width)
              0 level_names
          in
          if total > n_fus then
            Error
              [ Printf.sprintf "level {%s} needs %d columns, have %d"
                  (String.concat "," level_names) total n_fus ]
          else check_levels rest
      in
      let* () = check_levels levels in
      (* Layout:
           per level: dispatch row, thread regions, barrier row
           final halt row. *)
      let glue_rows p = (List.length p.p_glue + p.p_width - 1) / p.p_width in
      let region_rows p = glue_rows p + p.p_compiled.static_rows in
      let addr = ref 0 in
      let dispatch_addr = Hashtbl.create 7 in
      let barrier_addr = Hashtbl.create 7 in
      let entry_addr = Hashtbl.create 7 in
      List.iteri
        (fun l level_names ->
          Hashtbl.replace dispatch_addr l !addr;
          incr addr;
          List.iter
            (fun name ->
              let p = find_prepared name in
              Hashtbl.replace entry_addr name !addr;
              addr := !addr + region_rows p)
            level_names;
          Hashtbl.replace barrier_addr l !addr;
          incr addr)
        levels;
      let halt_addr = !addr in
      let total_rows = halt_addr + 1 in
      let rows =
        Array.init total_rows (fun a ->
          Array.make n_fus (unreachable_parcel a))
      in
      (* Column assignment. *)
      let columns = Hashtbl.create 7 in
      List.iteri
        (fun _ level_names ->
          let next_col = ref 0 in
          List.iter
            (fun name ->
              let p = find_prepared name in
              Hashtbl.replace columns name (!next_col, p.p_width);
              next_col := !next_col + p.p_width)
            level_names)
        levels;
      (* Emit dispatch and barrier rows. *)
      let errors = ref [] in
      List.iteri
        (fun l level_names ->
          let d = Hashtbl.find dispatch_addr l in
          let b = Hashtbl.find barrier_addr l in
          for fu = 0 to n_fus - 1 do
            let target =
              List.fold_left
                (fun acc name ->
                  let x, w = Hashtbl.find columns name in
                  if fu >= x && fu < x + w then Hashtbl.find entry_addr name
                  else acc)
                b level_names
            in
            rows.(d).(fu) <- Parcel.nop (Control.goto target)
          done;
          let next_stop =
            if l = List.length levels - 1 then halt_addr
            else Hashtbl.find dispatch_addr (l + 1)
          in
          for fu = 0 to n_fus - 1 do
            rows.(b).(fu) <-
              Parcel.make ~sync:Sync.Done Parcel.Dnop
                (Control.br (Cond.All_ss (Cond.full_mask n_fus)) next_stop b)
          done)
        levels;
      (* Halt row. *)
      for fu = 0 to n_fus - 1 do
        rows.(halt_addr).(fu) <- Parcel.halted
      done;
      (* Emit thread regions. *)
      List.iter
        (fun p ->
          let x, w = Hashtbl.find columns p.p_name in
          let entry = Hashtbl.find entry_addr p.p_name in
          let barrier = Hashtbl.find barrier_addr p.p_level in
          let n_glue = glue_rows p in
          (* Glue moves, w per row, on the thread's columns. *)
          List.iteri
            (fun i (dst, src) ->
              let row = entry + (i / w) and col = x + (i mod w) in
              rows.(row).(col) <-
                Parcel.make
                  (Parcel.Dun { op = Opcode.Mov; a = Operand.Reg src; d = dst })
                  (Control.goto (row + 1)))
            p.p_glue;
          (* Fill remaining glue-row slots with goto-next nops. *)
          for i = 0 to n_glue - 1 do
            for col = x to x + w - 1 do
              if Parcel.equal rows.(entry + i).(col)
                   (unreachable_parcel (entry + i))
              then
                rows.(entry + i).(col) <-
                  Parcel.nop (Control.goto (entry + i + 1))
            done
          done;
          (* Relocated body. *)
          let code_base = entry + n_glue in
          for a = 0 to p.p_compiled.static_rows - 1 do
            let source = Ximd_core.Program.row p.p_compiled.program a in
            for slot = 0 to w - 1 do
              let parcel : Parcel.t = source.(slot) in
              match
                relocate_control ~code_base ~col_offset:x ~barrier
                  parcel.control
              with
              | Ok control ->
                rows.(code_base + a).(x + slot) <-
                  { parcel with control }
              | Error msg -> errors := (p.p_name ^ ": " ^ msg) :: !errors
            done
          done)
        prepared;
      if !errors <> [] then Error (List.sort_uniq compare !errors)
      else begin
        let symbols =
          List.concat_map
            (fun p ->
              [ (p.p_name, Hashtbl.find entry_addr p.p_name) ])
            prepared
          @ List.mapi
              (fun l _ -> (Printf.sprintf "barrier_%d" l,
                           Hashtbl.find barrier_addr l))
              levels
        in
        let program = Ximd_core.Program.make ~symbols ~n_fus rows in
        let placements =
          List.map
            (fun p ->
              { thread = p.p_name;
                level = p.p_level;
                columns = Hashtbl.find columns p.p_name;
                entry = Hashtbl.find entry_addr p.p_name;
                param_regs = p.p_compiled.param_regs;
                result_regs = p.p_compiled.result_regs })
            prepared
        in
        Ok { program; n_fus; placements; levels; wires }
      end

(* ------------------------------------------------------------------ *)

let placement t name =
  List.find_opt (fun p -> p.thread = name) t.placements

let run ?config t ~args =
  let config =
    match config with
    | Some c -> c
    | None -> Ximd_core.Config.make ~n_fus:t.n_fus ()
  in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu t.program
  in
  (* Each thread's arguments, bound to its parameter registers. *)
  let rec bind inits = function
    | [] -> Ok inits
    | (name, values) :: rest -> (
      match placement t name with
      | None -> Error ("no thread " ^ name)
      | Some p ->
        if List.length values > List.length p.param_regs then
          Error (name ^ ": too many arguments")
        else
          bind
            (inits
            @ List.mapi (fun i v -> (snd (List.nth p.param_regs i), v)) values)
            rest)
  in
  match bind [] args with
  | Error msg -> Error msg
  | Ok inits ->
    let setup (state : Ximd_core.State.t) =
      List.iter
        (fun (reg, v) -> Ximd_machine.Regfile.set state.regs reg v)
        inits
    in
    let outcome = Ximd_core.Session.run ~setup session in
    Ok (outcome, Ximd_core.Session.state session)

let results t state =
  List.map
    (fun p ->
      ( p.thread,
        List.map
          (fun (_, reg) ->
            Ximd_machine.Regfile.read state.Ximd_core.State.regs reg)
          p.result_regs ))
    t.placements

let reference t ~threads ~args =
  let find_thread = thread_named threads in
  let produced : (string, Value.t list) Hashtbl.t = Hashtbl.create 7 in
  let rec run_levels = function
    | [] ->
      Ok
        (List.map
           (fun p -> (p.thread, Hashtbl.find produced p.thread))
           t.placements)
    | level :: rest ->
      let rec run_threads = function
        | [] -> run_levels rest
        | name :: more -> (
          match find_thread name with
          | None -> Error ("no thread " ^ name)
          | Some func ->
            let base_args =
              match List.assoc_opt name args with
              | Some values -> values
              | None -> []
            in
            let padded =
              List.mapi
                (fun i _ ->
                  (* Wired parameters take the producer's value. *)
                  let wired =
                    List.find_opt
                      (fun w -> w.to_thread = name && w.to_param = i)
                      t.wires
                  in
                  match wired with
                  | Some w -> (
                    match Hashtbl.find_opt produced w.from_thread with
                    | Some values -> (
                      match List.nth_opt values w.from_result with
                      | Some v -> v
                      | None -> Value.zero)
                    | None -> Value.zero)
                  | None -> (
                    match List.nth_opt base_args i with
                    | Some v -> v
                    | None -> Value.zero))
                func.params
            in
            (match Interp.run func ~args:padded ~mem:[] with
             | Ok outcome ->
               Hashtbl.replace produced name outcome.results;
               run_threads more
             | Error msg -> Error (name ^ ": " ^ msg)))
      in
      run_threads level
  in
  run_levels t.levels
