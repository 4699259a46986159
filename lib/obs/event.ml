type t =
  | Fetch of { cycle : int; fu : int; pc : int }
  | Commit of { cycle : int; results : int }
  | Cc_broadcast of { cycle : int; fu : int; value : bool }
  | Ss_transition of { cycle : int; fu : int; to_done : bool }
  | Partition_change of { cycle : int; ssets : int list list }
  | Barrier_enter of { cycle : int; fu : int; pc : int }
  | Barrier_exit of { cycle : int; fu : int; pc : int; waited : int }
  | Halt of { cycle : int; fu : int }
  | Fault_fired of { cycle : int; kind : string; target : int }
  | Watchdog_window of { cycle : int; quiet : int }

let cycle = function
  | Fetch { cycle; _ }
  | Commit { cycle; _ }
  | Cc_broadcast { cycle; _ }
  | Ss_transition { cycle; _ }
  | Partition_change { cycle; _ }
  | Barrier_enter { cycle; _ }
  | Barrier_exit { cycle; _ }
  | Halt { cycle; _ }
  | Fault_fired { cycle; _ }
  | Watchdog_window { cycle; _ } ->
    cycle

let dummy = Commit { cycle = -1; results = 0 }
