open Ximd_isa

type t = {
  n_fus : int;
  rows : Parcel.t array array;  (* addr -> fu -> parcel *)
  symbols : (string * int) list;
  classes : int array Atomic.t;
      (* the control-class table, empty until {!control_classes} first
         builds it; atomic so domains sharing a program publish it
         safely *)
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
  { n_fus; rows; symbols; classes = Atomic.make [||] }

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

(* Entry [addr * n_fus + fu]: the lowest FU whose control field at
   [addr] equals [fu]'s.  Built on first use, not by [make], so a
   program that never runs under per-FU sequencers (every program the
   compiler emits, until it runs) pays nothing for it.  Two domains that
   race to build it build equal tables. *)
let control_classes t =
  let table = Atomic.get t.classes in
  if Array.length table > 0 then table
  else begin
    let n = t.n_fus in
    let table = Array.make (Array.length t.rows * n) 0 in
    Array.iteri
      (fun addr (row : Parcel.t array) ->
        for fu = 0 to n - 1 do
          let rec first j =
            if Control.equal row.(j).control row.(fu).control then j
            else first (j + 1)
          in
          table.((addr * n) + fu) <- first 0
        done)
      t.rows;
    Atomic.set t.classes table;
    table
  end

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
      Ok { n_fus; rows; symbols = []; classes = Atomic.make [||] }
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
