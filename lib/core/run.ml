(* A waiting FU in a deadlock report: where it is stuck and the branch
   condition it spins on (an unconditional self-loop shows Always1). *)
type waiting = { fu : int; pc : int; cond : Ximd_isa.Cond.t }

type outcome =
  | Halted of { cycles : int }
  | Fuel_exhausted of { cycles : int }
  | Deadlocked of { cycles : int; spinning : waiting list }
  | Budget_exceeded of { cycles : int; budget : int }

let cycles = function
  | Halted { cycles } | Fuel_exhausted { cycles } | Deadlocked { cycles; _ }
  | Budget_exceeded { cycles; _ } ->
    cycles

let completed = function
  | Halted _ -> true
  | Fuel_exhausted _ | Deadlocked _ | Budget_exceeded _ -> false

let spinning = function
  | Halted _ | Fuel_exhausted _ | Budget_exceeded _ -> []
  | Deadlocked { spinning; _ } -> spinning

(* Codes with no {!outcome} constructor, both produced by the run farm
   (see lib/farm): 7 when an exception escapes a job, 130 (the SIGINT
   convention) when [ximd-serve] is interrupted. *)
let job_crashed_exit_code = 7
let interrupted_exit_code = 130

(* The one table the CLIs (--help EXIT STATUS), the README and the
   smoke tests all derive from; keep the wording in sync with all
   three. *)
let exit_codes =
  [ (0, "ok");
    (1, "bad input");
    (2, "hazard (default Raise policy)");
    (3, "fuel exhausted");
    (4, "deadlocked");
    (5, "hazards recorded (--record-hazards)");
    (6, "cycle budget (--cycle-budget) or job deadline exceeded");
    (job_crashed_exit_code, "job crashed (ximd serve)");
    (interrupted_exit_code, "interrupted by SIGINT (ximd serve)") ]

let exit_code ~hazards = function
  | Halted _ -> if hazards > 0 then 5 else 0
  | Fuel_exhausted _ -> 3
  | Deadlocked _ -> 4
  | Budget_exceeded _ -> 6

let kind = function
  | Halted _ -> "halted"
  | Fuel_exhausted _ -> "fuel_exhausted"
  | Deadlocked _ -> "deadlocked"
  | Budget_exceeded _ -> "budget_exceeded"

(* Every result record renders its outcome through here, so each case
   spells its kind as a literal (a preallocated constant) rather than
   calling [kind]. *)
let to_json =
  let open Ximd_json in
  let waiting { fu; pc; cond } =
    Obj
      [ ("fu", Int fu);
        ("pc", Int pc);
        ("cond", String (Ximd_isa.Cond.to_string cond)) ]
  in
  function
  | Halted { cycles } ->
    Obj [ ("kind", String "halted"); ("cycles", Int cycles) ]
  | Fuel_exhausted { cycles } ->
    Obj [ ("kind", String "fuel_exhausted"); ("cycles", Int cycles) ]
  | Deadlocked { cycles; spinning } ->
    Obj
      [ ("kind", String "deadlocked");
        ("cycles", Int cycles);
        ("spinning", List (List.map waiting spinning)) ]
  | Budget_exceeded { cycles; budget } ->
    Obj
      [ ("kind", String "budget_exceeded");
        ("cycles", Int cycles);
        ("budget", Int budget) ]

let pp_waiting fmt { fu; pc; cond } =
  Format.fprintf fmt "FU%d@@%02x: on %a" fu pc Ximd_isa.Cond.pp cond

let pp fmt = function
  | Halted { cycles } -> Format.fprintf fmt "halted after %d cycles" cycles
  | Fuel_exhausted { cycles } ->
    Format.fprintf fmt "fuel exhausted after %d cycles" cycles
  | Deadlocked { cycles; spinning } ->
    Format.fprintf fmt "deadlocked after %d cycles (%a)" cycles
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_waiting)
      spinning
  | Budget_exceeded { cycles; budget } ->
    Format.fprintf fmt "cycle budget of %d exceeded after %d cycles" budget
      cycles
