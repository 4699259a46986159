type error = { line : int; message : string }

let pp_error fmt { line; message } =
  Format.fprintf fmt "line %d: %s" line message

exception Fail of error

let fail line fmt_str =
  Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt_str

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)

type token =
  | Tint of int32
  | Tident of string
  | Tpunct of string  (* operators, punctuation, keywords *)

type lexed = { tok : token; tline : int }

let keywords = [ "func"; "if"; "else"; "while"; "return"; "mem" ]

let lex source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = tokens := { tok; tline = !line } :: !tokens in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '/' then begin
      while !i < n && source.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      let start = !i in
      if c = '0' && !i + 1 < n && (source.[!i + 1] = 'x' || source.[!i + 1] = 'X')
      then begin
        i := !i + 2;
        while !i < n && (is_digit source.[!i]
                         || (source.[!i] >= 'a' && source.[!i] <= 'f')
                         || (source.[!i] >= 'A' && source.[!i] <= 'F')) do
          incr i
        done
      end
      else while !i < n && is_digit source.[!i] do incr i done;
      let text = String.sub source start (!i - start) in
      match Int32.of_string_opt text with
      | Some v -> push (Tint v)
      | None -> fail !line "bad integer literal %S" text
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident source.[!i] do incr i done;
      let text = String.sub source start (!i - start) in
      if List.mem text keywords then push (Tpunct text)
      else push (Tident text)
    end
    else begin
      let two =
        if !i + 1 < n then String.sub source !i 2 else ""
      in
      if List.mem two [ "<<"; ">>"; "<="; ">="; "=="; "!=" ] then begin
        push (Tpunct two);
        i := !i + 2
      end
      else if String.contains "(){}[];,=<>+-*/%&|^!" c then begin
        push (Tpunct (String.make 1 c));
        incr i
      end
      else fail !line "unexpected character %C" c
    end
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* AST                                                                 *)

type expr =
  | Eint of int32
  | Evar of string
  | Eload of expr
  | Eneg of expr
  | Ebin of Ximd_isa.Opcode.binop * expr * expr

type cond = Ximd_isa.Opcode.cmpop * expr * expr

type stmt =
  | Sassign of string * expr
  | Sstore of expr * expr  (* address, value *)
  | Sif of cond * stmt list * stmt list
  | Swhile of cond * stmt list
  | Sreturn of expr list

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent with precedence climbing.                 *)

type parser_state = { mutable toks : lexed list }

let peek ps = match ps.toks with [] -> None | t :: _ -> Some t


let advance ps =
  match ps.toks with
  | [] -> fail 0 "unexpected end of input"
  | t :: rest ->
    ps.toks <- rest;
    t

let expect ps symbol =
  let t = advance ps in
  match t.tok with
  | Tpunct p when p = symbol -> ()
  | _ -> fail t.tline "expected %S" symbol

let accept ps symbol =
  match peek ps with
  | Some { tok = Tpunct p; _ } when p = symbol ->
    ignore (advance ps);
    true
  | _ -> false

let expect_ident ps =
  let t = advance ps in
  match t.tok with
  | Tident name -> name
  | _ -> fail t.tline "expected an identifier"

(* precedence: higher binds tighter *)
let binop_of = function
  | "*" -> Some (Ximd_isa.Opcode.Imult, 5)
  | "/" -> Some (Ximd_isa.Opcode.Idiv, 5)
  | "%" -> Some (Ximd_isa.Opcode.Imod, 5)
  | "+" -> Some (Ximd_isa.Opcode.Iadd, 4)
  | "-" -> Some (Ximd_isa.Opcode.Isub, 4)
  | "<<" -> Some (Ximd_isa.Opcode.Shl, 3)
  | ">>" -> Some (Ximd_isa.Opcode.Shr, 3)
  | "&" -> Some (Ximd_isa.Opcode.And, 2)
  | "^" -> Some (Ximd_isa.Opcode.Xor, 1)
  | "|" -> Some (Ximd_isa.Opcode.Or, 0)
  | _ -> None

let rec parse_primary ps =
  let t = advance ps in
  match t.tok with
  | Tint v -> Eint v
  | Tident name -> Evar name
  | Tpunct "(" ->
    let e = parse_expr ps in
    expect ps ")";
    e
  | Tpunct "-" -> Eneg (parse_primary ps)
  | Tpunct "mem" ->
    expect ps "[";
    let e = parse_expr ps in
    expect ps "]";
    Eload e
  | Tpunct p -> fail t.tline "unexpected %S in expression" p

and parse_binary ps min_prec =
  let lhs = ref (parse_primary ps) in
  let continue_ = ref true in
  while !continue_ do
    match peek ps with
    | Some { tok = Tpunct p; _ } -> (
      match binop_of p with
      | Some (op, prec) when prec >= min_prec ->
        ignore (advance ps);
        let rhs = parse_binary ps (prec + 1) in
        lhs := Ebin (op, !lhs, rhs)
      | Some _ | None -> continue_ := false)
    | Some _ | None -> continue_ := false
  done;
  !lhs

and parse_expr ps = parse_binary ps 0

let parse_cond ps =
  let lhs = parse_expr ps in
  let t = advance ps in
  let op =
    match t.tok with
    | Tpunct "<" -> Ximd_isa.Opcode.Lt
    | Tpunct "<=" -> Ximd_isa.Opcode.Le
    | Tpunct ">" -> Ximd_isa.Opcode.Gt
    | Tpunct ">=" -> Ximd_isa.Opcode.Ge
    | Tpunct "==" -> Ximd_isa.Opcode.Eq
    | Tpunct "!=" -> Ximd_isa.Opcode.Ne
    | _ -> fail t.tline "expected a comparison operator"
  in
  let rhs = parse_expr ps in
  (op, lhs, rhs)

(* "(" cond ")" after [if] or [while] *)
let parse_header ps =
  ignore (advance ps);
  expect ps "(";
  let cond = parse_cond ps in
  expect ps ")";
  cond

let rec parse_stmt ps =
  match peek ps with
  | Some { tok = Tpunct "if"; _ } ->
    let cond = parse_header ps in
    let then_ = parse_block ps in
    let else_ = if accept ps "else" then parse_block ps else [] in
    Sif (cond, then_, else_)
  | Some { tok = Tpunct "while"; _ } ->
    let cond = parse_header ps in
    let body = parse_block ps in
    Swhile (cond, body)
  | Some { tok = Tpunct "return"; _ } ->
    ignore (advance ps);
    let rec exprs acc =
      let e = parse_expr ps in
      if accept ps "," then exprs (e :: acc) else List.rev (e :: acc)
    in
    let es = exprs [] in
    expect ps ";";
    Sreturn es
  | Some { tok = Tpunct "mem"; _ } ->
    ignore (advance ps);
    expect ps "[";
    let addr = parse_expr ps in
    expect ps "]";
    expect ps "=";
    let value = parse_expr ps in
    expect ps ";";
    Sstore (addr, value)
  | Some { tok = Tident _; _ } ->
    let name = expect_ident ps in
    expect ps "=";
    let e = parse_expr ps in
    expect ps ";";
    Sassign (name, e)
  | Some t -> fail t.tline "expected a statement"
  | None -> fail 0 "expected a statement"

and parse_block ps =
  expect ps "{";
  let rec stmts acc =
    if accept ps "}" then List.rev acc else stmts (parse_stmt ps :: acc)
  in
  stmts []

let parse_func ps =
  expect ps "func";
  let name = expect_ident ps in
  expect ps "(";
  let rec params acc =
    match peek ps with
    | Some { tok = Tpunct ")"; _ } ->
      ignore (advance ps);
      List.rev acc
    | _ ->
      let p = expect_ident ps in
      if accept ps "," then params (p :: acc)
      else begin
        expect ps ")";
        List.rev (p :: acc)
      end
  in
  let params = params [] in
  let body = parse_block ps in
  (match peek ps with
   | None -> ()
   | Some t -> fail t.tline "trailing input after the function body");
  (name, params, body)

(* ------------------------------------------------------------------ *)
(* Lowering to IR                                                      *)

type lowering = {
  vars : (string, Ir.vreg) Hashtbl.t;
  mutable next_vreg : int;
  mutable next_pred : int;
  mutable next_label : int;
  mutable blocks : Ir.block list;     (* finished, reverse order *)
  mutable cur_label : string;
  mutable cur_body : Ir.op list;      (* reverse order *)
  mutable returns : Ir.vreg list option;
}

let fresh_vreg lw =
  let v = lw.next_vreg in
  lw.next_vreg <- v + 1;
  v

let var_of lw name =
  match Hashtbl.find_opt lw.vars name with
  | Some v -> v
  | None ->
    let v = fresh_vreg lw in
    Hashtbl.replace lw.vars name v;
    v

let fresh_label lw prefix =
  let l = lw.next_label in
  lw.next_label <- l + 1;
  Printf.sprintf "%s_%d" prefix l

let emit lw op = lw.cur_body <- op :: lw.cur_body

let finish_block lw term =
  lw.blocks <-
    { Ir.label = lw.cur_label; body = List.rev lw.cur_body; term }
    :: lw.blocks

let start_block lw label =
  lw.cur_label <- label;
  lw.cur_body <- []

let rec lower_expr lw expr =
  match expr with
  | Eint v -> Ir.C v
  | Evar name -> Ir.V (var_of lw name)
  | Eload addr ->
    let a = lower_expr lw addr in
    let d = fresh_vreg lw in
    emit lw (Ir.Load (a, Ir.C 0l, d));
    Ir.V d
  | Eneg e ->
    let a = lower_expr lw e in
    let d = fresh_vreg lw in
    emit lw (Ir.Un (Ximd_isa.Opcode.Ineg, a, d));
    Ir.V d
  | Ebin (op, lhs, rhs) ->
    let a = lower_expr lw lhs in
    let b = lower_expr lw rhs in
    let d = fresh_vreg lw in
    emit lw (Ir.Bin (op, a, b, d));
    Ir.V d

let lower_cond lw (op, lhs, rhs) =
  let a = lower_expr lw lhs in
  let b = lower_expr lw rhs in
  let p = lw.next_pred in
  lw.next_pred <- p + 1;
  emit lw (Ir.Cmp (op, a, b, p));
  p

let rec lower_stmt lw stmt =
  match stmt with
  | Sassign (name, e) ->
    let value = lower_expr lw e in
    let v = var_of lw name in
    emit lw (Ir.Un (Ximd_isa.Opcode.Mov, value, v))
  | Sstore (addr, e) ->
    let value = lower_expr lw e in
    let a = lower_expr lw addr in
    emit lw (Ir.Store (value, a))
  | Sreturn es ->
    (* All return statements write the same canonical result vregs, so
       every path agrees on where results live. *)
    let canonical =
      match lw.returns with
      | Some rs ->
        if List.length rs <> List.length es then
          fail 0 "all returns must yield the same number of values";
        rs
      | None ->
        let rs = List.map (fun _ -> fresh_vreg lw) es in
        lw.returns <- Some rs;
        rs
    in
    List.iter2
      (fun e v ->
        let value = lower_expr lw e in
        emit lw (Ir.Un (Ximd_isa.Opcode.Mov, value, v)))
      es canonical;
    finish_block lw Ir.Return;
    (* Anything after the return is dead; park it in a fresh
       unreachable block ending in Return. *)
    start_block lw (fresh_label lw "dead")
  | Sif (cond, then_, else_) ->
    let p = lower_cond lw cond in
    let l_then = fresh_label lw "then" in
    let l_else = fresh_label lw "else" in
    let l_join = fresh_label lw "join" in
    finish_block lw (Ir.Branch (p, l_then, l_else));
    start_block lw l_then;
    List.iter (lower_stmt lw) then_;
    finish_block lw (Ir.Jump l_join);
    start_block lw l_else;
    List.iter (lower_stmt lw) else_;
    finish_block lw (Ir.Jump l_join);
    start_block lw l_join
  | Swhile (cond, body) ->
    let l_head = fresh_label lw "head" in
    let l_body = fresh_label lw "body" in
    let l_exit = fresh_label lw "exit" in
    finish_block lw (Ir.Jump l_head);
    start_block lw l_head;
    let p = lower_cond lw cond in
    finish_block lw (Ir.Branch (p, l_body, l_exit));
    start_block lw l_body;
    List.iter (lower_stmt lw) body;
    finish_block lw (Ir.Jump l_head);
    start_block lw l_exit

let lower (name, params, body) =
  let lw =
    { vars = Hashtbl.create 17; next_vreg = 0; next_pred = 0;
      next_label = 0; blocks = []; cur_label = "entry"; cur_body = [];
      returns = None }
  in
  let param_vregs = List.map (var_of lw) params in
  List.iter (lower_stmt lw) body;
  (* Implicit return of nothing if the source did not return. *)
  if lw.returns = None then lw.returns <- Some [];
  finish_block lw Ir.Return;
  let blocks = List.rev lw.blocks in
  (* Dead blocks introduced after returns are harmless but noisy; keep
     only blocks reachable from the entry. *)
  let n_blocks = List.length blocks in
  let by_label = Hashtbl.create n_blocks in
  List.iter
    (fun (b : Ir.block) ->
      if not (Hashtbl.mem by_label b.label) then Hashtbl.add by_label b.label b)
    blocks;
  let reachable = Hashtbl.create n_blocks in
  let rec mark label =
    if not (Hashtbl.mem reachable label) then begin
      Hashtbl.replace reachable label ();
      match Hashtbl.find_opt by_label label with
      | None -> ()
      | Some b -> List.iter mark (Ir.successors b.term)
    end
  in
  (match blocks with [] -> () | b :: _ -> mark b.label);
  let blocks =
    List.filter (fun (b : Ir.block) -> Hashtbl.mem reachable b.label) blocks
  in
  { Ir.name;
    params = param_vregs;
    results = (match lw.returns with Some r -> r | None -> []);
    blocks }

(* ------------------------------------------------------------------ *)

(* Each frontend stage runs as a pass of [obs], so an observed compile's
   Chrome trace shows where frontend time goes. *)
let parse_with obs source =
  match
    let tokens = Schedobs.pass obs "lex" (fun () -> lex source) in
    let ps = { toks = tokens } in
    let ast = Schedobs.pass obs "parse" (fun () -> parse_func ps) in
    let func = Schedobs.pass obs "lower" (fun () -> lower ast) in
    Schedobs.pass obs "validate-ir" (fun () ->
      match Ir.validate func with
      | Ok () -> ()
      | Error errors ->
        fail 0 "lowering produced invalid IR: %s" (String.concat "; " errors));
    func
  with
  | func -> Ok func
  | exception Fail e -> Error e

let parse source = parse_with None source

let compile ?width ?obs source =
  match parse_with obs source with
  | Error e -> Error [ Format.asprintf "%a" pp_error e ]
  | Ok func -> Codegen.compile ?width ?obs func
