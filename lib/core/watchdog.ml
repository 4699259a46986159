open Ximd_isa

(* Deadlock/livelock watchdog.

   Each cycle with zero global progress — no register, memory or
   condition-code result reaching the commit stage, no I/O operation,
   and an empty result pipeline — contributes a signature hash of the
   observable control state (per-FU PC, CC, SS and halted bits) to a
   sliding window.  Any commit or I/O activity resets the window: while
   at least one FU is doing real work the machine is making progress by
   definition, however long the others spin.

   Once the window is full of quiet cycles we look for a period p (up to
   half the window) over the hash sequence.  The machine is
   deterministic, so if the control state repeats with period p and no
   data-path state changed across the whole window (no commits, no I/O),
   the configuration at cycle t equals the configuration at t - p and
   the machine is provably wedged: every live FU is re-evaluating the
   same branch conditions against the same signals forever.  This
   classifies both fixpoint deadlocks (a consumer pinned on a BUSY
   signal that will never turn DONE — period 1) and multi-PC livelock
   orbits (FUs chasing each other around short spin loops — period > 1)
   long before the fuel limit.

   The only approximation is the hash itself (64-bit FNV-style over at
   most 16 FUs' worth of state); a false positive needs a hash-chain
   collision across a whole window of cycles. *)

let default_window = 64

type t = {
  window : int;
  hashes : int array;  (* ring of the last [window] quiet-cycle hashes *)
  mutable pos : int;   (* next slot to write *)
  mutable quiet : int; (* consecutive quiet cycles observed *)
  mutable last_progress : int;  (* progress meter at the last reset *)
}

let create ?(window = default_window) () =
  if window < 4 then invalid_arg "Watchdog.create: window must be >= 4";
  { window;
    hashes = Array.make window 0;
    pos = 0;
    quiet = 0;
    last_progress = min_int }

let reset t =
  t.quiet <- 0;
  t.pos <- 0;
  (* forget the previous run's progress meter: if it happened to equal
     the next run's, the first observe would count as quiet instead of
     syncing, and detection latency would depend on watchdog reuse *)
  t.last_progress <- min_int

let window t = t.window

(* FNV-1a-style mix over the control-observable state; allocation
   free. *)
let signature (state : State.t) =
  let n = State.n_fus state in
  let h = ref 0x3bf29ce484222325 in
  let mix v = h := (!h lxor v) * 0x100000001b3 in
  for fu = 0 to n - 1 do
    mix state.pcs.(fu);
    mix
      (match state.ccs.(fu) with
       | None -> 0
       | Some false -> 1
       | Some true -> 2);
    mix (match state.sss.(fu) with Sync.Busy -> 3 | Sync.Done -> 4);
    mix (if state.halted.(fu) then 5 else 6)
  done;
  !h

(* True when the whole window is p-periodic for some p <= window/2. *)
let periodic t =
  let w = t.window in
  (* chronological index i (0 = oldest) lives at ring slot
     (pos + i) mod w once the ring is full *)
  let at i = t.hashes.((t.pos + i) mod w) in
  let rec check_period p i =
    i + p >= w || (at i = at (i + p) && check_period p (i + 1))
  in
  let rec find p = p <= w / 2 && (check_period p 0 || find (p + 1)) in
  find 1

let progress_meter (state : State.t) =
  state.stats.commit_ops + state.stats.io_ops

(* Observe the machine after a completed cycle; true means a deadlock
   is established. *)
let observe t (state : State.t) =
  let p = progress_meter state in
  if p <> t.last_progress || State.in_flight_count state > 0 then begin
    t.last_progress <- p;
    t.quiet <- 0;
    false
  end
  else begin
    t.hashes.(t.pos) <- signature state;
    t.pos <- (t.pos + 1) mod t.window;
    if t.quiet < t.window then t.quiet <- t.quiet + 1;
    t.quiet >= t.window && periodic t
  end

(* The postmortem spinning set: every live FU, its PC and the branch
   condition it is re-evaluating, read from the program's image (a halt,
   and a PC outside the program, read [Always1]).  At detection time no
   live FU is making progress, so this is exactly the set of waiters. *)
let spinning (state : State.t) =
  let img = Program.image state.program in
  let n = State.n_fus state and len = Program.length state.program in
  let rec go fu acc =
    if fu < 0 then acc
    else
      let acc =
        if state.halted.(fu) then acc
        else
          let pc = state.pcs.(fu) in
          let cond =
            if pc >= 0 && pc < len then img.cond.((pc * n) + fu)
            else Cond.Always1
          in
          { Run.fu; pc; cond } :: acc
      in
      go (fu - 1) acc
  in
  go (n - 1) []

let deadlocked (state : State.t) =
  Run.Deadlocked { cycles = state.cycle; spinning = spinning state }
