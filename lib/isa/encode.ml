type words = { w0 : int64; w1 : int64; w2 : int64 }

let bits_per_parcel = 192
let max_address = 0xffff

(* Bit-field helpers.  [set w ~pos ~width v] installs [v] (which must fit
   in [width] bits) at [pos]; [get w ~pos ~width] extracts it. *)

let set w ~pos ~width v =
  if v < 0 || (width < 63 && v lsr width <> 0) then
    invalid_arg
      (Printf.sprintf "Encode: value %d does not fit in %d bits" v width)
  else Int64.logor w (Int64.shift_left (Int64.of_int v) pos)

let get w ~pos ~width =
  let mask = Int64.sub (Int64.shift_left 1L width) 1L in
  Int64.to_int (Int64.logand (Int64.shift_right_logical w pos) mask)

let set32 w ~pos v = Int64.logor w
    (Int64.shift_left (Int64.logand (Int64.of_int32 v) 0xffff_ffffL) pos)

let get32 w ~pos =
  Int64.to_int32 (Int64.shift_right_logical w pos)

(* Opcode numbering within each kind. *)

let index_in lst x =
  let rec loop i = function
    | [] -> invalid_arg "Encode: unknown opcode"
    | y :: tl -> if x = y then i else loop (i + 1) tl
  in
  loop 0 lst

let nth_opt lst i = List.nth_opt lst i

(* Data-operation field packing.  Unused operand slots encode as
   register 0 with the immediate flags clear and zero immediates, which
   keeps the representation canonical. *)

type data_fields = {
  kind : int;
  opix : int;
  a : Operand.t option;
  b : Operand.t option;
  d : Reg.t option;
}

let data_fields (data : Parcel.data) =
  match data with
  | Parcel.Dnop -> { kind = 0; opix = 0; a = None; b = None; d = None }
  | Parcel.Dbin { op; a; b; d } ->
    { kind = 1; opix = index_in Opcode.all_binops op;
      a = Some a; b = Some b; d = Some d }
  | Parcel.Dun { op; a; d } ->
    { kind = 2; opix = index_in Opcode.all_unops op;
      a = Some a; b = None; d = Some d }
  | Parcel.Dcmp { op; a; b } ->
    { kind = 3; opix = index_in Opcode.all_cmpops op;
      a = Some a; b = Some b; d = None }
  | Parcel.Dload { a; b; d } ->
    { kind = 4; opix = 0; a = Some a; b = Some b; d = Some d }
  | Parcel.Dstore { a; b } ->
    { kind = 5; opix = 0; a = Some a; b = Some b; d = None }
  | Parcel.Din { port; d } ->
    { kind = 6; opix = 0; a = Some port; b = None; d = Some d }
  | Parcel.Dout { a; port } ->
    { kind = 7; opix = 0; a = Some a; b = Some port; d = None }

let encode_data data =
  let f = data_fields data in
  let operand_bits = function
    | None -> (0, 0, 0l)
    | Some (Operand.Reg r) -> (0, Reg.index r, 0l)
    | Some (Operand.Imm v) -> (1, 0, Value.to_int32 v)
  in
  let a_imm, a_reg, a_pay = operand_bits f.a in
  let b_imm, b_reg, b_pay = operand_bits f.b in
  let d_reg = match f.d with None -> 0 | Some r -> Reg.index r in
  let w0 =
    set 0L ~pos:0 ~width:3 f.kind
    |> fun w -> set w ~pos:3 ~width:5 f.opix
    |> fun w -> set w ~pos:8 ~width:1 a_imm
    |> fun w -> set w ~pos:9 ~width:1 b_imm
    |> fun w -> set w ~pos:10 ~width:8 a_reg
    |> fun w -> set w ~pos:18 ~width:8 b_reg
    |> fun w -> set w ~pos:26 ~width:8 d_reg
  in
  let w1 = set32 (set32 0L ~pos:0 a_pay) ~pos:32 b_pay in
  (w0, w1)

let encode_target ~w ~pos = function
  | Control.Addr a ->
    if a < 0 || a > max_address then
      invalid_arg (Printf.sprintf "Encode: address %d out of range" a)
    else (set w ~pos ~width:16 a, 0)
  | Control.Fallthrough -> (w, 1)

let encode_control control sync =
  let w = 0L in
  match control with
  | Control.Halt ->
    let sync_bit = match sync with Sync.Done -> 1 | Sync.Busy -> 0 in
    set w ~pos:58 ~width:1 sync_bit
  | Control.Branch { cond; t1; t2 } ->
    let ckind, cfu, mask =
      match cond with
      | Cond.Always1 -> (0, 0, 0)
      | Cond.Always2 -> (1, 0, 0)
      | Cond.Cc j -> (2, j, 0)
      | Cond.Ss j -> (3, j, 0)
      | Cond.All_ss m -> (4, 0, m)
      | Cond.Any_ss m -> (5, 0, m)
    in
    let w = set w ~pos:0 ~width:1 1 in
    let w = set w ~pos:1 ~width:3 ckind in
    let w = set w ~pos:4 ~width:4 cfu in
    let w = set w ~pos:8 ~width:16 mask in
    let w, ft1 = encode_target ~w ~pos:24 t1 in
    let w = set w ~pos:40 ~width:1 ft1 in
    let w, ft2 = encode_target ~w ~pos:41 t2 in
    let w = set w ~pos:57 ~width:1 ft2 in
    let sync_bit = match sync with Sync.Done -> 1 | Sync.Busy -> 0 in
    set w ~pos:58 ~width:1 sync_bit

let encode (p : Parcel.t) =
  let w0, w1 = encode_data p.data in
  let w2 = encode_control p.control p.sync in
  { w0; w1; w2 }

(* Decoding. *)

let ( let* ) = Result.bind

let decode_operand ~imm ~reg ~payload ~what =
  if imm = 1 then
    if reg <> 0 then Error (what ^ ": immediate with non-zero register field")
    else Ok (Operand.Imm (Value.of_int32 payload))
  else if payload <> 0l then
    Error (what ^ ": register operand with non-zero immediate payload")
  else Ok (Operand.Reg (Reg.make reg))

let decode_unused ~imm ~reg ~payload ~what =
  if imm <> 0 || reg <> 0 || payload <> 0l then
    Error (what ^ ": unused operand slot not zeroed")
  else Ok ()

let decode_data w0 w1 =
  let kind = get w0 ~pos:0 ~width:3 in
  let opix = get w0 ~pos:3 ~width:5 in
  let a_imm = get w0 ~pos:8 ~width:1 in
  let b_imm = get w0 ~pos:9 ~width:1 in
  let a_reg = get w0 ~pos:10 ~width:8 in
  let b_reg = get w0 ~pos:18 ~width:8 in
  let d_reg = get w0 ~pos:26 ~width:8 in
  let a_pay = get32 w1 ~pos:0 in
  let b_pay = get32 w1 ~pos:32 in
  if get w0 ~pos:34 ~width:30 <> 0 then Error "w0: spare bits not zero"
  else
    let a () = decode_operand ~imm:a_imm ~reg:a_reg ~payload:a_pay ~what:"a" in
    let b () = decode_operand ~imm:b_imm ~reg:b_reg ~payload:b_pay ~what:"b" in
    let no_a () = decode_unused ~imm:a_imm ~reg:a_reg ~payload:a_pay ~what:"a" in
    let no_b () = decode_unused ~imm:b_imm ~reg:b_reg ~payload:b_pay ~what:"b" in
    let d () = Reg.make d_reg in
    let no_d () = if d_reg <> 0 then Error "d: unused but non-zero" else Ok () in
    let opix0 what = if opix <> 0 then Error (what ^ ": opix not zero") else Ok () in
    match kind with
    | 0 ->
      let* () = opix0 "nop" in
      let* () = no_a () in
      let* () = no_b () in
      let* () = no_d () in
      Ok Parcel.Dnop
    | 1 -> begin
        match nth_opt Opcode.all_binops opix with
        | None -> Error "binop: bad opcode index"
        | Some op ->
          let* a = a () in
          let* b = b () in
          Ok (Parcel.Dbin { op; a; b; d = d () })
      end
    | 2 -> begin
        match nth_opt Opcode.all_unops opix with
        | None -> Error "unop: bad opcode index"
        | Some op ->
          let* a = a () in
          let* () = no_b () in
          Ok (Parcel.Dun { op; a; d = d () })
      end
    | 3 -> begin
        match nth_opt Opcode.all_cmpops opix with
        | None -> Error "cmp: bad opcode index"
        | Some op ->
          let* a = a () in
          let* b = b () in
          let* () = no_d () in
          Ok (Parcel.Dcmp { op; a; b })
      end
    | 4 ->
      let* () = opix0 "load" in
      let* a = a () in
      let* b = b () in
      Ok (Parcel.Dload { a; b; d = d () })
    | 5 ->
      let* () = opix0 "store" in
      let* a = a () in
      let* b = b () in
      let* () = no_d () in
      Ok (Parcel.Dstore { a; b })
    | 6 ->
      let* () = opix0 "in" in
      let* port = a () in
      let* () = no_b () in
      Ok (Parcel.Din { port; d = d () })
    | 7 ->
      let* () = opix0 "out" in
      let* a = a () in
      let* port = b () in
      let* () = no_d () in
      Ok (Parcel.Dout { a; port })
    | _ -> Error "data: impossible kind"

let decode_target w ~addr_pos ~ft_pos ~what =
  let addr = get w ~pos:addr_pos ~width:16 in
  let ft = get w ~pos:ft_pos ~width:1 in
  if ft = 1 then
    if addr <> 0 then Error (what ^ ": fall-through with non-zero address")
    else Ok Control.Fallthrough
  else Ok (Control.Addr addr)

let decode_control w2 =
  let branch = get w2 ~pos:0 ~width:1 in
  let ckind = get w2 ~pos:1 ~width:3 in
  let cfu = get w2 ~pos:4 ~width:4 in
  let mask = get w2 ~pos:8 ~width:16 in
  let sync_bit = get w2 ~pos:58 ~width:1 in
  let sync = if sync_bit = 1 then Sync.Done else Sync.Busy in
  if get w2 ~pos:59 ~width:5 <> 0 then Error "w2: spare bits not zero"
  else if branch = 0 then
    if ckind <> 0 || cfu <> 0 || mask <> 0 || get w2 ~pos:24 ~width:34 <> 0
    then Error "halt: control fields not zeroed"
    else Ok (Control.Halt, sync)
  else
    let* cond =
      match ckind with
      | 0 | 1 ->
        if cfu <> 0 || mask <> 0 then
          Error "always: condition fields not zeroed"
        else Ok (if ckind = 0 then Cond.Always1 else Cond.Always2)
      | 2 | 3 ->
        if mask <> 0 then Error "cc/ss: mask not zeroed"
        else Ok (if ckind = 2 then Cond.Cc cfu else Cond.Ss cfu)
      | 4 | 5 ->
        if cfu <> 0 then Error "all/any: fu index not zeroed"
        else Ok (if ckind = 4 then Cond.All_ss mask else Cond.Any_ss mask)
      | _ -> Error "cond: bad kind"
    in
    let* t1 = decode_target w2 ~addr_pos:24 ~ft_pos:40 ~what:"t1" in
    let* t2 = decode_target w2 ~addr_pos:41 ~ft_pos:57 ~what:"t2" in
    Ok (Control.Branch { cond; t1; t2 }, sync)

let decode { w0; w1; w2 } =
  let* data = decode_data w0 w1 in
  let* control, sync = decode_control w2 in
  Ok { Parcel.data; control; sync }

let to_bytes { w0; w1; w2 } =
  let buf = Bytes.create 24 in
  Bytes.set_int64_le buf 0 w0;
  Bytes.set_int64_le buf 8 w1;
  Bytes.set_int64_le buf 16 w2;
  buf

let of_bytes buf =
  if Bytes.length buf <> 24 then Error "of_bytes: expected 24 bytes"
  else
    Ok
      { w0 = Bytes.get_int64_le buf 0;
        w1 = Bytes.get_int64_le buf 8;
        w2 = Bytes.get_int64_le buf 16 }
