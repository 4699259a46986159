open Ximd_isa
module Core = Ximd_core
module M = Ximd_machine

type fu_report = {
  fu : int;
  halted : bool;
  pc : int;
  parcel : string option;
  waiting : Cond.t option;
  ss : Sync.t;
  cc : bool option;
  sset : int list;
}

type t = {
  outcome : Core.Run.outcome;
  cycle : int;
  fus : fu_report list;
  hazards : M.Hazard.event list;
  faults : M.Fault.event list;
}

let collect (state : Core.State.t) ~outcome =
  let program = state.program in
  let report fu =
    let halted = state.halted.(fu) in
    let pc = state.pcs.(fu) in
    let parcel =
      if pc >= 0 && pc < Core.Program.length program then
        Some (Parcel.to_string (Core.Program.row program pc).(fu))
      else None
    in
    let waiting =
      if halted then None
      else
        match
          if pc >= 0 && pc < Core.Program.length program then
            (Core.Program.row program pc).(fu).control
          else Control.Halt
        with
        | Control.Branch { cond; _ } -> Some cond
        | Control.Halt -> None
    in
    { fu;
      halted;
      pc;
      parcel;
      waiting;
      ss = state.sss.(fu);
      cc = state.ccs.(fu);
      sset = Core.Partition.sset_of state.partition fu }
  in
  { outcome;
    cycle = state.cycle;
    fus = List.init (Core.State.n_fus state) report;
    hazards = Core.State.hazards state;
    faults = (match state.faults with None -> [] | Some f -> M.Fault.fired f) }

(* ------------------------------------------------------------------ *)
(* Human-readable rendering                                            *)

let pp_cc fmt = function
  | None -> Format.pp_print_string fmt "X"
  | Some true -> Format.pp_print_string fmt "T"
  | Some false -> Format.pp_print_string fmt "F"

let pp_sset fmt sset =
  Format.fprintf fmt "{%s}"
    (String.concat "," (List.map string_of_int sset))

let pp_fu fmt r =
  Format.fprintf fmt "FU%-2d %-6s pc=%02x  ss=%-4s cc=%a  sset=%a" r.fu
    (if r.halted then "halted" else "live")
    r.pc
    (Sync.to_string r.ss)
    pp_cc r.cc pp_sset r.sset;
  (match r.waiting with
   | Some cond -> Format.fprintf fmt "  waits %a" Cond.pp cond
   | None -> ());
  match r.parcel with
  | Some p -> Format.fprintf fmt "  parcel: %s" p
  | None -> Format.fprintf fmt "  parcel: <outside program>"

let pp fmt t =
  let live = List.length (List.filter (fun r -> not r.halted) t.fus) in
  Format.fprintf fmt "@[<v>postmortem: %a@,cycle %d, %d/%d FUs live"
    Core.Run.pp t.outcome t.cycle live (List.length t.fus);
  List.iter (fun r -> Format.fprintf fmt "@,  %a" pp_fu r) t.fus;
  (match t.hazards with
   | [] -> ()
   | hs ->
     Format.fprintf fmt "@,hazards (%d):" (List.length hs);
     List.iter
       (fun e -> Format.fprintf fmt "@,  %a" M.Hazard.pp_event e)
       hs);
  (match t.faults with
   | [] -> ()
   | fs ->
     Format.fprintf fmt "@,injected faults fired (%d):" (List.length fs);
     List.iter
       (fun e -> Format.fprintf fmt "@,  %a" M.Fault.pp_event e)
       fs);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

let to_json t =
  let open Ximd_json in
  let option f = function Some x -> f x | None -> Null in
  let fu r =
    Obj
      [ ("fu", Int r.fu);
        ("halted", Bool r.halted);
        ("pc", Int r.pc);
        ("parcel", option (fun p -> String p) r.parcel);
        ("waiting", option (fun c -> String (Cond.to_string c)) r.waiting);
        ("ss", String (Sync.to_string r.ss));
        ("cc", option (fun b -> Bool b) r.cc);
        ("sset", List (List.map (fun i -> Int i) r.sset)) ]
  in
  let hazard (e : M.Hazard.event) =
    Obj
      [ ("cycle", Int e.cycle);
        ("hazard", String (M.Hazard.to_string e.hazard)) ]
  in
  let fault (e : M.Fault.event) =
    Obj
      [ ("at", Int e.at);
        ("kind", String (M.Fault.kind_name e.kind));
        ("target", Int e.target) ]
  in
  Obj
    [ ("outcome", Core.Run.to_json t.outcome);
      ("cycle", Int t.cycle);
      ("fus", List (List.map fu t.fus));
      ("hazards", List (List.map hazard t.hazards));
      ("faults", List (List.map fault t.faults)) ]
