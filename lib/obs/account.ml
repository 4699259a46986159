(* Per-slot cycle accounting: a flat fu×class counter matrix.  A tally
   is a single array increment, so the engine can classify every slot of
   every cycle without allocating. *)

type cls =
  | Commit
  | Nop_padding
  | Spin_ss
  | Spin_cc
  | Barrier_wait
  | Squashed
  | Fault_lost
  | Halted

let n_classes = 8

let index = function
  | Commit -> 0
  | Nop_padding -> 1
  | Spin_ss -> 2
  | Spin_cc -> 3
  | Barrier_wait -> 4
  | Squashed -> 5
  | Fault_lost -> 6
  | Halted -> 7

let all =
  [ Commit; Nop_padding; Spin_ss; Spin_cc; Barrier_wait; Squashed;
    Fault_lost; Halted ]

let name = function
  | Commit -> "commit"
  | Nop_padding -> "nop_padding"
  | Spin_ss -> "spin_ss"
  | Spin_cc -> "spin_cc"
  | Barrier_wait -> "barrier_wait"
  | Squashed -> "squashed"
  | Fault_lost -> "fault_lost"
  | Halted -> "halted"

let label = function
  | Commit -> "commit"
  | Nop_padding -> "nop padding"
  | Spin_ss -> "SS spin"
  | Spin_cc -> "CC spin"
  | Barrier_wait -> "barrier wait"
  | Squashed -> "squashed"
  | Fault_lost -> "fault lost"
  | Halted -> "halted"

type t = {
  n_fus : int;
  counts : int array;  (* fu * n_classes + index cls *)
}

let create ~n_fus =
  if n_fus < 1 then invalid_arg "Account.create: n_fus must be >= 1";
  { n_fus; counts = Array.make (n_fus * n_classes) 0 }

let n_fus t = t.n_fus

let tally t ~fu cls =
  let i = (fu * n_classes) + index cls in
  t.counts.(i) <- t.counts.(i) + 1

let count t ~fu cls = t.counts.((fu * n_classes) + index cls)

let total t cls =
  let i = index cls in
  let sum = ref 0 in
  for fu = 0 to t.n_fus - 1 do
    sum := !sum + t.counts.((fu * n_classes) + i)
  done;
  !sum

let slots t = Array.fold_left ( + ) 0 t.counts

let reset t = Array.fill t.counts 0 (Array.length t.counts) 0

let to_json t ~cycles =
  let open Ximd_json in
  let per_class f = List.map (fun cls -> (name cls, Int (f cls))) all in
  Obj
    [ ("schema", String "ximd-account/1");
      ("cycles", Int cycles);
      ("n_fus", Int t.n_fus);
      ("slots", Int (slots t));
      ("totals", Obj (per_class (total t)));
      ( "per_fu",
        List
          (List.init t.n_fus (fun fu ->
             Obj (("fu", Int fu) :: per_class (count t ~fu)))) ) ]

let pp fmt t ~cycles =
  let slots = slots t in
  let pct n =
    if slots = 0 then 0. else 100. *. float_of_int n /. float_of_int slots
  in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "cycle accounting: %d cycles x %d FUs = %d slots@," cycles t.n_fus slots;
  Format.fprintf fmt "  category      %12s  %6s  per-FU@," "slots" "%";
  List.iter
    (fun cls ->
      let n = total t cls in
      if n > 0 then
        Format.fprintf fmt "  %-12s  %12d  %5.1f%%  %s" (label cls) n (pct n)
          (String.concat "/"
             (List.init t.n_fus (fun fu -> string_of_int (count t ~fu cls))));
      if n > 0 then Format.pp_print_cut fmt ())
    all;
  Format.pp_close_box fmt ()
