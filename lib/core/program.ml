open Ximd_isa

type op =
  | Nop
  | Bin of Opcode.binop
  | Un of Opcode.unop
  | Cmp of Opcode.cmpop
  | Load
  | Store
  | In
  | Out

type image = {
  op : op array;
  is_float : bool array;
  a_reg : int array;
  a_imm : Value.t array;
  b_reg : int array;
  b_imm : Value.t array;
  dest : Reg.t array;
  t1 : int array;
  t2 : int array;
  cond : Cond.t array;
  conditional : bool array;
  sync : Sync.t array;
  classes : int array;
}

type t = {
  n_fus : int;
  rows : Parcel.t array array;  (* addr -> fu -> parcel *)
  symbols : (string * int) list;
  decoded : image option Atomic.t;
      (* [None] until {!image} first builds the image; atomic so
         domains sharing a program publish it safely *)
}

let make ?(symbols = []) ~n_fus rows =
  if Array.length rows = 0 then invalid_arg "Program.make: empty program";
  Array.iteri
    (fun addr row ->
      if Array.length row <> n_fus then
        invalid_arg
          (Printf.sprintf "Program.make: row %d has %d parcels, expected %d"
             addr (Array.length row) n_fus))
    rows;
  { n_fus; rows; symbols; decoded = Atomic.make None }

let of_rows ?symbols ~n_fus rows =
  make ?symbols ~n_fus (Array.of_list (List.map Array.of_list rows))

let n_fus t = t.n_fus
let length t = Array.length t.rows

let fetch t ~fu ~addr =
  if addr < 0 || addr >= Array.length t.rows || fu < 0 || fu >= t.n_fus then
    None
  else Some t.rows.(addr).(fu)

let row t addr =
  if addr < 0 || addr >= Array.length t.rows then
    invalid_arg (Printf.sprintf "Program.row: address %d out of range" addr)
  else t.rows.(addr)

(* ------------------------------------------------------------------ *)
(* Lowering: the only place parcels are matched on the way to the
   engine.  Slot [k] of [img] receives the parcel at [addr]; the
   arrays start at the defaults [lower] gives them, so an operand or a
   destination the operation lacks stays at its default. *)

let lower_data img k (data : Parcel.data) =
  let operand regs imms = function
    | Operand.Reg r -> regs.(k) <- Reg.index r
    | Operand.Imm v -> imms.(k) <- v
  in
  let a = operand img.a_reg img.a_imm and b = operand img.b_reg img.b_imm in
  let dest d = img.dest.(k) <- d in
  img.op.(k) <-
    (match data with
     | Parcel.Dnop -> Nop
     | Parcel.Dbin { op; a = x; b = y; d } ->
       a x;
       b y;
       dest d;
       img.is_float.(k) <- Opcode.binop_is_float op;
       Bin op
     | Parcel.Dun { op; a = x; d } ->
       a x;
       dest d;
       img.is_float.(k) <- Opcode.unop_is_float op;
       Un op
     | Parcel.Dcmp { op; a = x; b = y } ->
       a x;
       b y;
       img.is_float.(k) <- Opcode.cmpop_is_float op;
       Cmp op
     | Parcel.Dload { a = x; b = y; d } ->
       a x;
       b y;
       dest d;
       Load
     | Parcel.Dstore { a = x; b = y } ->
       a x;
       b y;
       Store
     | Parcel.Din { port; d } ->
       a port;
       dest d;
       In
     | Parcel.Dout { a = x; port } ->
       a x;
       b port;
       Out)

(* Both targets resolved at [addr]: -1 for [Halt], and an unconditional
   branch's one destination in both, since its outcome is fixed. *)
let lower_control img k ~addr (control : Control.t) =
  let targets t1 t2 =
    img.t1.(k) <- t1;
    img.t2.(k) <- t2
  in
  match control with
  | Control.Halt -> targets (-1) (-1)
  | Control.Branch { cond; _ } -> (
    let next taken = Option.get (Control.resolve control ~pc:addr ~taken) in
    img.cond.(k) <- cond;
    match cond with
    | Cond.Always1 -> targets (next true) (next true)
    | Cond.Always2 -> targets (next false) (next false)
    | Cond.Cc _ | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
      img.conditional.(k) <- true;
      targets (next true) (next false))

(* The image of every row, plus the halt row past the end. *)
let lower t =
  let n = t.n_fus and len = Array.length t.rows in
  let size = (len + 1) * n in
  let img =
    { op = Array.make size Nop;
      is_float = Array.make size false;
      a_reg = Array.make size (-1);
      a_imm = Array.make size Value.zero;
      b_reg = Array.make size (-1);
      b_imm = Array.make size Value.zero;
      dest = Array.make size (Reg.make 0);
      t1 = Array.make size (-1);
      t2 = Array.make size (-1);
      cond = Array.make size Cond.Always1;
      conditional = Array.make size false;
      sync = Array.make size Sync.Done;
      classes = Array.make size 0 }
  in
  let halt_row = Array.make n Parcel.halted in
  for addr = 0 to len do
    let row = if addr < len then t.rows.(addr) else halt_row in
    for fu = 0 to n - 1 do
      let k = (addr * n) + fu and (p : Parcel.t) = row.(fu) in
      lower_data img k p.data;
      lower_control img k ~addr p.control;
      img.sync.(k) <- p.sync;
      let rec first j =
        if Control.equal row.(j).control p.control then j else first (j + 1)
      in
      img.classes.(k) <- first 0
    done
  done;
  img

(* The image's targets are already resolved at their addresses, so a
   branch whose two targets coincide is a jump there (an unconditional
   branch's always do, and [Halt]'s are both -1), and any other branch
   is its condition and its two targets. *)
let same_signature img a b =
  let a1 = img.t1.(a) and a2 = img.t2.(a) in
  let b1 = img.t1.(b) and b2 = img.t2.(b) in
  if a1 = a2 || b1 = b2 then a1 = a2 && b1 = b2 && a1 = b1
  else a1 = b1 && a2 = b2 && Cond.equal img.cond.(a) img.cond.(b)

(* Built on first use, not by [make], so a program that never runs
   (every program the compiler emits, until it runs) pays nothing for
   it.  Two domains that race to build it build equal images. *)
let image t =
  match Atomic.get t.decoded with
  | Some img -> img
  | None ->
    let img = lower t in
    Atomic.set t.decoded (Some img);
    img

let symbols t = t.symbols
let address_of t name = List.assoc_opt name t.symbols

let label_at t addr =
  List.fold_left
    (fun acc (name, a) -> if a = addr && acc = None then Some name else acc)
    None t.symbols

(* Static validation. *)

let validate_target ~len ~sequencer errors ~where = function
  | Control.Addr a ->
    if a < 0 || a >= len then
      Printf.sprintf "%s: branch target %d outside program [0, %d)" where a
        len
      :: errors
    else errors
  | Control.Fallthrough -> (
    match (sequencer : Config.sequencer) with
    | Config.Prototype -> errors
    | Config.Research ->
      (where ^ ": fall-through target requires the prototype sequencer")
      :: errors)

let validate_cond ~n_fus errors ~where = function
  | Cond.Always1 | Cond.Always2 -> errors
  | Cond.Cc j | Cond.Ss j ->
    if j < 0 || j >= n_fus then
      Printf.sprintf "%s: condition references FU %d (have %d FUs)" where j
        n_fus
      :: errors
    else errors
  | Cond.All_ss mask | Cond.Any_ss mask ->
    if mask <= 0 || mask >= 1 lsl n_fus then
      Printf.sprintf "%s: sync mask 0x%x invalid for %d FUs" where mask n_fus
      :: errors
    else errors

let validate t (config : Config.t) =
  let len = Array.length t.rows in
  let errors = ref [] in
  if t.n_fus <> config.n_fus then
    errors :=
      [ Printf.sprintf "program has %d FU columns but config has %d FUs"
          t.n_fus config.n_fus ];
  Array.iteri
    (fun addr row ->
      Array.iteri
        (fun fu (p : Parcel.t) ->
          let where = Printf.sprintf "%02x:[%d]" addr fu in
          match p.control with
          | Control.Halt -> ()
          | Control.Branch { cond; t1; t2 } ->
            errors := validate_cond ~n_fus:t.n_fus !errors ~where cond;
            errors :=
              validate_target ~len ~sequencer:config.sequencer !errors ~where
                t1;
            errors :=
              validate_target ~len ~sequencer:config.sequencer !errors ~where
                t2)
        row)
    t.rows;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

let control_consistent t =
  Array.for_all
    (fun row ->
      let reference : Parcel.t = row.(0) in
      Array.for_all
        (fun (p : Parcel.t) ->
          Control.equal p.control reference.control
          && Sync.equal p.sync reference.sync)
        row)
    t.rows

(* Binary image. *)

let magic = "XIMD"
let version = 1

let encode t =
  let n_rows = Array.length t.rows in
  let header = Bytes.create 16 in
  Bytes.blit_string magic 0 header 0 4;
  Bytes.set_int32_le header 4 (Int32.of_int version);
  Bytes.set_int32_le header 8 (Int32.of_int t.n_fus);
  Bytes.set_int32_le header 12 (Int32.of_int n_rows);
  let body = Buffer.create (n_rows * t.n_fus * 24) in
  Buffer.add_bytes body header;
  Array.iter
    (fun row ->
      Array.iter
        (fun p -> Buffer.add_bytes body (Encode.to_bytes (Encode.encode p)))
        row)
    t.rows;
  Buffer.to_bytes body

let ( let* ) = Result.bind

let decode buf =
  if Bytes.length buf < 16 then Error "image too short"
  else if Bytes.sub_string buf 0 4 <> magic then Error "bad magic"
  else if Int32.to_int (Bytes.get_int32_le buf 4) <> version then
    Error "unsupported version"
  else
    let n_fus = Int32.to_int (Bytes.get_int32_le buf 8) in
    let n_rows = Int32.to_int (Bytes.get_int32_le buf 12) in
    if n_fus < 1 || n_fus > 16 then Error "bad FU count"
    else if n_rows < 1 then Error "bad row count"
    else if Bytes.length buf <> 16 + (n_rows * n_fus * 24) then
      Error "image length mismatch"
    else begin
      let parcel_at i =
        let off = 16 + (i * 24) in
        let* words = Encode.of_bytes (Bytes.sub buf off 24) in
        Encode.decode words
      in
      let rows = Array.make n_rows [||] in
      let rec fill addr =
        if addr >= n_rows then Ok ()
        else begin
          let row = Array.make n_fus Parcel.halted in
          let rec fill_fu fu =
            if fu >= n_fus then Ok ()
            else
              let* p = parcel_at ((addr * n_fus) + fu) in
              row.(fu) <- p;
              fill_fu (fu + 1)
          in
          let* () = fill_fu 0 in
          rows.(addr) <- row;
          fill (addr + 1)
        end
      in
      let* () = fill 0 in
      Ok { n_fus; rows; symbols = []; decoded = Atomic.make None }
    end

(* Paper-style listing (Figure 9 layout). *)

let pp_listing fmt t =
  let col_width = 26 in
  let pad s =
    if String.length s >= col_width then s
    else s ^ String.make (col_width - String.length s) ' '
  in
  let line prefix cells =
    Format.fprintf fmt "%s" prefix;
    List.iter (fun c -> Format.fprintf fmt "| %s " (pad c)) cells;
    Format.fprintf fmt "|@,"
  in
  Format.pp_open_vbox fmt 0;
  Array.iteri
    (fun addr row ->
      (match label_at t addr with
       | Some name -> Format.fprintf fmt "%s:@," name
       | None -> ());
      let prefix = Printf.sprintf "%02x: " addr in
      let blank = String.make (String.length prefix) ' ' in
      let cells = Array.to_list row in
      line prefix
        (List.map (fun (p : Parcel.t) -> Control.to_string p.control) cells);
      line blank
        (List.map
           (fun (p : Parcel.t) -> Format.asprintf "%a" Parcel.pp_data p.data)
           cells);
      if List.exists (fun (p : Parcel.t) -> Sync.equal p.sync Sync.Done) cells
      then
        line blank
          (List.map (fun (p : Parcel.t) -> Sync.to_string p.sync) cells))
    t.rows;
  Format.pp_close_box fmt ()

let equal_code a b =
  a.n_fus = b.n_fus
  && Array.length a.rows = Array.length b.rows
  && Array.for_all2
       (fun ra rb -> Array.for_all2 Parcel.equal ra rb)
       a.rows b.rows
