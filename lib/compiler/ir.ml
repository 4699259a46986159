type vreg = int
type pred = int

type operand =
  | V of vreg
  | C of int32
  | Cf of float

type op =
  | Bin of Ximd_isa.Opcode.binop * operand * operand * vreg
  | Un of Ximd_isa.Opcode.unop * operand * vreg
  | Cmp of Ximd_isa.Opcode.cmpop * operand * operand * pred
  | Load of operand * operand * vreg
  | Store of operand * operand

type terminator =
  | Jump of string
  | Branch of pred * string * string
  | Return

type block = {
  label : string;
  body : op list;
  term : terminator;
}

type func = {
  name : string;
  params : vreg list;
  results : vreg list;
  blocks : block list;
}

let defs = function
  | Bin (_, _, _, d) | Un (_, _, d) | Load (_, _, d) -> Some d
  | Cmp _ | Store _ -> None

let operand_use = function V v -> Some v | C _ | Cf _ -> None

let uses = function
  | Bin (_, a, b, _) | Cmp (_, a, b, _) | Load (a, b, _) | Store (a, b) ->
    List.filter_map operand_use [ a; b ]
  | Un (_, a, _) -> List.filter_map operand_use [ a ]

let def_pred = function
  | Cmp (_, _, _, p) -> Some p
  | Bin _ | Un _ | Load _ | Store _ -> None

let is_mem = function
  | Load _ | Store _ -> true
  | Bin _ | Un _ | Cmp _ -> false

let is_store = function
  | Store _ -> true
  | Load _ | Bin _ | Un _ | Cmp _ -> false

let successors = function
  | Jump l -> [ l ]
  | Branch (_, t1, t2) -> [ t1; t2 ]
  | Return -> []

let block_named func label =
  List.find_opt (fun b -> b.label = label) func.blocks

(* Linear in the size of the function: labels and definitions go into
   tables sized to it, and errors keep the order of the program text. *)
let validate func =
  let errors = ref [] in
  let err fmt_str = Printf.ksprintf (fun m -> errors := m :: !errors) fmt_str in
  (match func.blocks with
   | [] -> err "function %s has no blocks" func.name
   | _ :: _ -> ());
  (* Occurrences of each label not yet passed: a label is reported at
     every occurrence that a later one duplicates. *)
  let later = Hashtbl.create (List.length func.blocks) in
  let count l = Option.value (Hashtbl.find_opt later l) ~default:0 in
  List.iter (fun b -> Hashtbl.replace later b.label (count b.label + 1)) func.blocks;
  List.iter
    (fun b ->
      let k = count b.label - 1 in
      Hashtbl.replace later b.label k;
      if k > 0 then err "duplicate block label %s" b.label)
    func.blocks;
  let target_defined where l =
    if not (Hashtbl.mem later l) then err "%s: undefined branch target %s" where l
  in
  List.iter
    (fun b ->
      (match b.term with
       | Jump l -> target_defined b.label l
       | Branch (p, t1, t2) ->
         target_defined b.label t1;
         target_defined b.label t2;
         let defined =
           List.exists
             (function Cmp (_, _, _, q) -> q = p | Bin _ | Un _ | Load _ | Store _ -> false)
             b.body
         in
         if not defined then
           err "%s: branch predicate p%d not defined by a Cmp in the block"
             b.label p
       | Return -> ());
      (* Predicates may only feed the terminator. *)
      List.iter
        (fun op ->
          match op with
          | Cmp (_, _, _, p) ->
            let used_by_term =
              match b.term with Branch (q, _, _) -> q = p | Jump _ | Return -> false
            in
            if not used_by_term then
              err "%s: predicate p%d is not consumed by the terminator"
                b.label p
          | Bin _ | Un _ | Load _ | Store _ -> ())
        b.body)
    func.blocks;
  (* Conservative def-before-use: every used vreg is a parameter or
     defined somewhere in the function. *)
  let defined =
    Hashtbl.create
      (List.fold_left (fun n b -> n + List.length b.body) 0 func.blocks)
  in
  let define v = Hashtbl.replace defined v () in
  List.iter define func.params;
  List.iter (fun b -> List.iter (fun op -> Option.iter define (defs op)) b.body) func.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun op ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem defined v) then
                err "%s: v%d used but never defined" b.label v)
            (uses op))
        b.body)
    func.blocks;
  match List.rev !errors with [] -> Ok () | es -> Error es

let pp_operand fmt = function
  | V v -> Format.fprintf fmt "v%d" v
  | C c -> Format.fprintf fmt "%ld" c
  | Cf f -> Format.fprintf fmt "%gf" f

let pp_op fmt = function
  | Bin (op, a, b, d) ->
    Format.fprintf fmt "v%d := %a %a, %a" d Ximd_isa.Opcode.pp_binop op
      pp_operand a pp_operand b
  | Un (op, a, d) ->
    Format.fprintf fmt "v%d := %a %a" d Ximd_isa.Opcode.pp_unop op pp_operand a
  | Cmp (op, a, b, p) ->
    Format.fprintf fmt "p%d := %a %a, %a" p Ximd_isa.Opcode.pp_cmpop op
      pp_operand a pp_operand b
  | Load (a, b, d) ->
    Format.fprintf fmt "v%d := load %a + %a" d pp_operand a pp_operand b
  | Store (a, b) ->
    Format.fprintf fmt "store %a -> M(%a)" pp_operand a pp_operand b

let pp_term fmt = function
  | Jump l -> Format.fprintf fmt "jump %s" l
  | Branch (p, t1, t2) -> Format.fprintf fmt "branch p%d ? %s : %s" p t1 t2
  | Return -> Format.pp_print_string fmt "return"

let pp_block fmt b =
  Format.fprintf fmt "@[<v 2>%s:" b.label;
  List.iter (fun op -> Format.fprintf fmt "@,%a" pp_op op) b.body;
  Format.fprintf fmt "@,%a@]" pp_term b.term

let pp_func fmt f =
  Format.fprintf fmt "@[<v>func %s(%s) -> (%s)@,%a@]" f.name
    (String.concat ", " (List.map (Printf.sprintf "v%d") f.params))
    (String.concat ", " (List.map (Printf.sprintf "v%d") f.results))
    (Format.pp_print_list pp_block)
    f.blocks
