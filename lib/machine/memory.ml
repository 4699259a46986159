open Ximd_isa

type organisation =
  | Shared
  | Distributed of { n_fus : int }

(* Contents are paged and lazily allocated: workloads touch a small
   fraction of the 64K-word default address space, and allocating the
   whole flat array up front made [create] — and therefore every
   simulator run — pay ~0.5 MB of heap churn.  A page is allocated on
   first write; reads of an untouched page are zero (memory starts
   zeroed either way).  [no_page] is the shared placeholder, recognised
   by physical equality.

   Staged stores live in growable parallel arrays in issue order, so a
   store appends in O(1) without building assoc cells; commit groups
   duplicate addresses with a linear scan (the stage holds at most one
   store per FU per cycle, so the scan is tiny). *)

let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let no_page : Value.t array = [||]

type t = {
  organisation : organisation;
  words : int;
  pages : Value.t array array;
  mutable st_addr : int array;
  mutable st_fu : int array;
  mutable st_value : Value.t array;
  mutable st_len : int;
}

let initial_stage_capacity = 16

let create ?(organisation = Shared) ~words () =
  if words <= 0 then invalid_arg "Memory.create: words must be positive";
  (match organisation with
   | Shared -> ()
   | Distributed { n_fus } ->
     if n_fus <= 0 || words mod n_fus <> 0 then
       invalid_arg "Memory.create: words must divide evenly among FUs");
  let n_pages = (words + page_size - 1) / page_size in
  { organisation;
    words;
    pages = Array.make n_pages no_page;
    st_addr = Array.make initial_stage_capacity 0;
    st_fu = Array.make initial_stage_capacity 0;
    st_value = Array.make initial_stage_capacity Value.zero;
    st_len = 0 }

let words t = t.words
let organisation t = t.organisation

let peek t addr =
  let page = t.pages.(addr lsr page_bits) in
  if page == no_page then Value.zero else page.(addr land page_mask)

let poke t addr value =
  let i = addr lsr page_bits in
  let page = t.pages.(i) in
  if page != no_page then page.(addr land page_mask) <- value
  else if not (Value.equal value Value.zero) then begin
    let page = Array.make page_size Value.zero in
    t.pages.(i) <- page;
    page.(addr land page_mask) <- value
  end

(* An address is accessible to [fu] if it is in range and, under the
   distributed organisation, falls in that FU's bank. *)
let accessible t ~fu addr =
  addr >= 0
  && addr < t.words
  &&
  match t.organisation with
  | Shared -> true
  | Distributed { n_fus } ->
    let bank = t.words / n_fus in
    addr / bank = fu

let read t ~fu ~cycle ~log addr =
  if accessible t ~fu addr then peek t addr
  else begin
    Hazard.report log ~cycle (Hazard.Mem_out_of_bounds { addr; fu });
    Value.zero
  end

let grow_stage t =
  let cap = Array.length t.st_addr in
  let cap' = 2 * cap in
  let addr = Array.make cap' 0
  and fu = Array.make cap' 0
  and value = Array.make cap' Value.zero in
  Array.blit t.st_addr 0 addr 0 cap;
  Array.blit t.st_fu 0 fu 0 cap;
  Array.blit t.st_value 0 value 0 cap;
  t.st_addr <- addr;
  t.st_fu <- fu;
  t.st_value <- value

let stage_write t ~fu ~cycle ~log addr value =
  if accessible t ~fu addr then begin
    if t.st_len = Array.length t.st_addr then grow_stage t;
    let k = t.st_len in
    t.st_addr.(k) <- addr;
    t.st_fu.(k) <- fu;
    t.st_value.(k) <- value;
    t.st_len <- k + 1
  end
  else Hazard.report log ~cycle (Hazard.Mem_out_of_bounds { addr; fu })

let commit t ~cycle ~log =
  let len = t.st_len in
  t.st_len <- 0;
  for k = 0 to len - 1 do
    let addr = t.st_addr.(k) in
    if addr >= 0 then begin
      (* Any later store to the same address?  (Consumed entries are
         marked with -1.) *)
      let dup = ref false in
      for j = k + 1 to len - 1 do
        if t.st_addr.(j) = addr then dup := true
      done;
      if not !dup then poke t addr t.st_value.(k)
      else begin
        let fus_rev = ref [] and wfu = ref (-1) and wv = ref Value.zero in
        for j = k to len - 1 do
          if t.st_addr.(j) = addr then begin
            t.st_addr.(j) <- -1;
            let fu = t.st_fu.(j) in
            fus_rev := fu :: !fus_rev;
            (* highest-numbered FU wins, latest store on ties *)
            if fu >= !wfu then begin
              wfu := fu;
              wv := t.st_value.(j)
            end
          end
        done;
        Hazard.report log ~cycle
          (Hazard.Multiple_mem_write { addr; fus = List.rev !fus_rev });
        poke t addr !wv
      end
    end
  done

let staged_count t = t.st_len

(* Rewind to the [create] state.  Allocated pages are zeroed in place
   rather than dropped: a reused state keeps its working-set arenas. *)
let reset t =
  Array.iter
    (fun page ->
      if page != no_page then Array.fill page 0 page_size Value.zero)
    t.pages;
  t.st_len <- 0

let check_bounds t addr what =
  if addr < 0 || addr >= t.words then
    invalid_arg (Printf.sprintf "Memory.%s: address %d out of bounds" what addr)

let set t addr value =
  check_bounds t addr "set";
  poke t addr value

let get t addr =
  check_bounds t addr "get";
  peek t addr

let dump_block t ~addr ~len =
  Array.init len (fun i -> get t (addr + i))
