type data =
  | Dnop
  | Dbin of { op : Opcode.binop; a : Operand.t; b : Operand.t; d : Reg.t }
  | Dun of { op : Opcode.unop; a : Operand.t; d : Reg.t }
  | Dcmp of { op : Opcode.cmpop; a : Operand.t; b : Operand.t }
  | Dload of { a : Operand.t; b : Operand.t; d : Reg.t }
  | Dstore of { a : Operand.t; b : Operand.t }
  | Din of { port : Operand.t; d : Reg.t }
  | Dout of { a : Operand.t; port : Operand.t }

type t = {
  data : data;
  control : Control.t;
  sync : Sync.t;
}

let make ?(sync = Sync.Busy) data control = { data; control; sync }
let nop control = make Dnop control

let halted = { data = Dnop; control = Control.Halt; sync = Sync.Done }

let operand_reads ops =
  List.filter_map
    (function Operand.Reg r -> Some r | Operand.Imm _ -> None)
    ops

let reads = function
  | Dnop -> []
  | Dbin { a; b; _ } | Dcmp { a; b; _ } | Dload { a; b; _ }
  | Dstore { a; b } ->
    operand_reads [ a; b ]
  | Dun { a; _ } -> operand_reads [ a ]
  | Din { port; _ } -> operand_reads [ port ]
  | Dout { a; port } -> operand_reads [ a; port ]

let writes = function
  | Dbin { d; _ } | Dun { d; _ } | Dload { d; _ } | Din { d; _ } -> Some d
  | Dnop | Dcmp _ | Dstore _ | Dout _ -> None

let sets_cc = function
  | Dcmp _ -> true
  | Dnop | Dbin _ | Dun _ | Dload _ | Dstore _ | Din _ | Dout _ -> false

let is_nop = function
  | Dnop -> true
  | Dbin _ | Dun _ | Dcmp _ | Dload _ | Dstore _ | Din _ | Dout _ -> false

let is_memory = function
  | Dload _ | Dstore _ -> true
  | Dnop | Dbin _ | Dun _ | Dcmp _ | Din _ | Dout _ -> false

let data_equal x y =
  match x, y with
  | Dnop, Dnop -> true
  | Dbin a, Dbin b ->
    a.op = b.op && Operand.equal a.a b.a && Operand.equal a.b b.b
    && Reg.equal a.d b.d
  | Dun a, Dun b -> a.op = b.op && Operand.equal a.a b.a && Reg.equal a.d b.d
  | Dcmp a, Dcmp b ->
    a.op = b.op && Operand.equal a.a b.a && Operand.equal a.b b.b
  | Dload a, Dload b ->
    Operand.equal a.a b.a && Operand.equal a.b b.b && Reg.equal a.d b.d
  | Dstore a, Dstore b -> Operand.equal a.a b.a && Operand.equal a.b b.b
  | Din a, Din b -> Operand.equal a.port b.port && Reg.equal a.d b.d
  | Dout a, Dout b -> Operand.equal a.a b.a && Operand.equal a.port b.port
  | (Dnop | Dbin _ | Dun _ | Dcmp _ | Dload _ | Dstore _ | Din _ | Dout _), _
    ->
    false

let equal x y =
  data_equal x.data y.data
  && Control.equal x.control y.control
  && Sync.equal x.sync y.sync

let pp_data fmt = function
  | Dnop -> Format.pp_print_string fmt "nop"
  | Dbin { op; a; b; d } ->
    Format.fprintf fmt "%a %a,%a,%a" Opcode.pp_binop op Operand.pp a
      Operand.pp b Reg.pp d
  | Dun { op; a; d } ->
    Format.fprintf fmt "%a %a,%a" Opcode.pp_unop op Operand.pp a Reg.pp d
  | Dcmp { op; a; b } ->
    Format.fprintf fmt "%a %a,%a" Opcode.pp_cmpop op Operand.pp a Operand.pp b
  | Dload { a; b; d } ->
    Format.fprintf fmt "load %a,%a,%a" Operand.pp a Operand.pp b Reg.pp d
  | Dstore { a; b } ->
    Format.fprintf fmt "store %a,%a" Operand.pp a Operand.pp b
  | Din { port; d } ->
    Format.fprintf fmt "in %a,%a" Operand.pp port Reg.pp d
  | Dout { a; port } ->
    Format.fprintf fmt "out %a,%a" Operand.pp a Operand.pp port

let pp fmt t =
  Format.fprintf fmt "%a | %a | %a" pp_data t.data Control.pp t.control
    Sync.pp t.sync

let to_string t = Format.asprintf "%a" pp t
