open Ximd_isa

(* Staging is flat arrays indexed by register number plus a stack of
   dirty indices, so [stage_write] and [commit] touch only the registers
   actually written this cycle and allocate nothing on the
   single-writer-per-register path.  [staged_fu.(i)] holds the winning
   (highest-numbered, latest on ties) FU, -1 when unstaged;
   [staged_fus.(i)] stays [] until a second write lands on [i] and then
   lists every writer, most recent first, for the hazard report. *)
type t = {
  values : Value.t array;
  staged_value : Value.t array;
  staged_fu : int array;
  staged_fus : int list array;
  dirty : int array;
  mutable n_dirty : int;
  mutable n_staged : int;
}

let create () =
  { values = Array.make Reg.count Value.zero;
    staged_value = Array.make Reg.count Value.zero;
    staged_fu = Array.make Reg.count (-1);
    staged_fus = Array.make Reg.count [];
    dirty = Array.make Reg.count 0;
    n_dirty = 0;
    n_staged = 0 }

let copy t =
  { values = Array.copy t.values;
    staged_value = Array.copy t.staged_value;
    staged_fu = Array.copy t.staged_fu;
    staged_fus = Array.copy t.staged_fus;
    dirty = Array.copy t.dirty;
    n_dirty = t.n_dirty;
    n_staged = t.n_staged }

let read t r = t.values.(Reg.index r)
let values t = t.values

let stage_write t ~fu r value =
  let i = Reg.index r in
  let w = t.staged_fu.(i) in
  if w < 0 then begin
    t.staged_fu.(i) <- fu;
    t.staged_value.(i) <- value;
    t.dirty.(t.n_dirty) <- i;
    t.n_dirty <- t.n_dirty + 1
  end
  else begin
    (t.staged_fus.(i) <-
       (match t.staged_fus.(i) with [] -> [ fu; w ] | l -> fu :: l));
    if fu >= w then begin
      t.staged_fu.(i) <- fu;
      t.staged_value.(i) <- value
    end
  end;
  t.n_staged <- t.n_staged + 1

(* Under the Raise policy a hazard report aborts the commit mid-way; the
   remaining staged entries must still be cleared so the file is usable
   afterwards (the old assoc-list implementation emptied the stage up
   front). *)
let clear_from t k n =
  for j = k to n - 1 do
    let i = t.dirty.(j) in
    t.staged_fu.(i) <- -1;
    t.staged_fus.(i) <- []
  done

let commit t ~cycle ~log =
  let n = t.n_dirty in
  t.n_dirty <- 0;
  t.n_staged <- 0;
  let k = ref 0 in
  try
    while !k < n do
      let i = t.dirty.(!k) in
      (match t.staged_fus.(i) with
       | [] ->
         t.staged_fu.(i) <- -1;
         t.values.(i) <- t.staged_value.(i)
       | writers ->
         t.staged_fu.(i) <- -1;
         t.staged_fus.(i) <- [];
         Hazard.report log ~cycle
           (Hazard.Multiple_reg_write
              { reg = Reg.make i; fus = List.rev writers });
         (* highest-numbered FU wins — tracked incrementally by
            stage_write *)
         t.values.(i) <- t.staged_value.(i));
      incr k
    done
  with e ->
    clear_from t (!k + 1) n;
    raise e

let staged_count t = t.n_staged

(* Rewind to the [create] state without reallocating the arrays. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) Value.zero;
  clear_from t 0 t.n_dirty;
  t.n_dirty <- 0;
  t.n_staged <- 0

let set t r value = t.values.(Reg.index r) <- value

let dump t = Array.copy t.values
