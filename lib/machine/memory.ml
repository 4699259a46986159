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
   by physical equality.  Stores wait in the engine's write-back queue
   and land here through [set] once they pass [accessible]. *)

let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let no_page : Value.t array = [||]

type t = {
  organisation : organisation;
  words : int;
  pages : Value.t array array;
}

let create ?(organisation = Shared) ~words () =
  if words <= 0 then invalid_arg "Memory.create: words must be positive";
  (match organisation with
   | Shared -> ()
   | Distributed { n_fus } ->
     if n_fus <= 0 || words mod n_fus <> 0 then
       invalid_arg "Memory.create: words must divide evenly among FUs");
  let n_pages = (words + page_size - 1) / page_size in
  { organisation; words; pages = Array.make n_pages no_page }

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

(* Rewind to the [create] state.  Allocated pages are zeroed in place
   rather than dropped: a reused state keeps its working-set arenas. *)
let reset t =
  Array.iter
    (fun page ->
      if page != no_page then Array.fill page 0 page_size Value.zero)
    t.pages

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
