open Ximd_isa

type error = { line : int; message : string }

let pp_error fmt { line; message } =
  Format.fprintf fmt "line %d: %s" line message

exception Fail of error

let fail line fmt_str =
  Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt_str

(* ------------------------------------------------------------------ *)
(* Pre-resolution representations                                      *)

type ptarget = Tlabel of string | Taddr of int | Tfall

type pcond =
  | PCc of int
  | PSs of int
  | PAll of int list option  (* None = all FUs *)
  | PAny of int list option

type pctl =
  | PGoto of ptarget
  | PGoto2 of ptarget
  | PIf of pcond * ptarget * ptarget
  | PHalt

type pparcel = {
  line : int;
  fu : int;
  data : Parcel.data;
  ctl : pctl;
  sync : Sync.t;
}

type statement =
  | Sfus of int * int          (* line, n *)
  | Slabel of int * string
  | Sparcel of pparcel

(* ------------------------------------------------------------------ *)
(* Lexical helpers                                                     *)

let strip_comment line =
  match String.index_opt line ';' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let split_fields sep s = String.split_on_char sep s |> List.map String.trim

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* ------------------------------------------------------------------ *)
(* Operand and data-operation parsing                                  *)

let parse_operand ln s =
  if s = "" then fail ln "empty operand"
  else if s.[0] = 'r' || s.[0] = 'R' then
    match Reg.of_string s with
    | Some r -> Operand.Reg r
    | None -> fail ln "bad register %S" s
  else if String.length s > 3 && String.sub s 0 3 = "#f:" then
    match float_of_string_opt (String.sub s 3 (String.length s - 3)) with
    | Some f -> Operand.Imm (Value.of_float f)
    | None -> fail ln "bad float immediate %S" s
  else if s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some v -> Operand.Imm (Value.of_int v)
    | None -> fail ln "bad immediate %S" s
  else fail ln "bad operand %S (expected rN or #K)" s

let operand_reg ln s =
  match parse_operand ln s with
  | Operand.Reg r -> r
  | Operand.Imm _ -> fail ln "destination must be a register, got %S" s

let parse_data ln text =
  let text = String.trim text in
  match String.index_opt text ' ' with
  | None ->
    if String.lowercase_ascii text = "nop" then Parcel.Dnop
    else fail ln "bad data operation %S" text
  | Some i ->
    let opname = String.lowercase_ascii (String.sub text 0 i) in
    let rest = String.sub text i (String.length text - i) in
    let ops = split_fields ',' rest in
    let arity n =
      if List.length ops <> n then
        fail ln "%s expects %d operands, got %d" opname n (List.length ops)
    in
    let op n = List.nth ops n in
    (match Opcode.binop_of_string opname with
     | Some bop ->
       arity 3;
       Parcel.Dbin
         { op = bop; a = parse_operand ln (op 0); b = parse_operand ln (op 1);
           d = operand_reg ln (op 2) }
     | None ->
     match Opcode.unop_of_string opname with
     | Some uop ->
       arity 2;
       Parcel.Dun
         { op = uop; a = parse_operand ln (op 0); d = operand_reg ln (op 1) }
     | None ->
     match Opcode.cmpop_of_string opname with
     | Some cop ->
       arity 2;
       Parcel.Dcmp
         { op = cop; a = parse_operand ln (op 0); b = parse_operand ln (op 1) }
     | None ->
     match opname with
     | "load" ->
       arity 3;
       Parcel.Dload
         { a = parse_operand ln (op 0); b = parse_operand ln (op 1);
           d = operand_reg ln (op 2) }
     | "store" ->
       arity 2;
       Parcel.Dstore
         { a = parse_operand ln (op 0); b = parse_operand ln (op 1) }
     | "in" ->
       arity 2;
       Parcel.Din { port = parse_operand ln (op 0); d = operand_reg ln (op 1) }
     | "out" ->
       arity 2;
       Parcel.Dout
         { a = parse_operand ln (op 0); port = parse_operand ln (op 1) }
     | _ -> fail ln "unknown opcode %S" opname)

(* ------------------------------------------------------------------ *)
(* Control parsing                                                     *)

let parse_target ln s =
  if s = "+1" then Tfall
  else if String.length s > 1 && s.[0] = '@' then
    match int_of_string_opt ("0x" ^ String.sub s 1 (String.length s - 1)) with
    | Some a -> Taddr a
    | None -> fail ln "bad absolute target %S" s
  else if s <> "" && String.for_all is_ident_char s then Tlabel s
  else fail ln "bad branch target %S" s

let parse_fu_list ln s =
  (* "(0,1,2)" -> [0;1;2] *)
  let n = String.length s in
  if n < 2 || s.[0] <> '(' || s.[n - 1] <> ')' then
    fail ln "bad FU list %S" s
  else
    split_fields ',' (String.sub s 1 (n - 2))
    |> List.map (fun x ->
         match int_of_string_opt x with
         | Some i -> i
         | None -> fail ln "bad FU index %S" x)

let parse_cond ln s =
  let s = String.lowercase_ascii s in
  let tail prefix = String.sub s (String.length prefix)
      (String.length s - String.length prefix)
  in
  let starts prefix =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  if starts "cc" then
    match int_of_string_opt (tail "cc") with
    | Some j -> PCc j
    | None -> fail ln "bad condition %S" s
  else if starts "ss" then
    match int_of_string_opt (tail "ss") with
    | Some j -> PSs j
    | None -> fail ln "bad condition %S" s
  else if s = "all" then PAll None
  else if starts "all(" then PAll (Some (parse_fu_list ln (tail "all")))
  else if s = "any" then PAny None
  else if starts "any(" then PAny (Some (parse_fu_list ln (tail "any")))
  else fail ln "bad condition %S" s

let parse_ctl ln text =
  (* Pad ':' so it tokenises on whitespace. *)
  let padded = String.concat " : " (String.split_on_char ':' text) in
  match words padded with
  | [ "halt" ] -> PHalt
  | [ "->"; t ] -> PGoto (parse_target ln t)
  | [ "->2"; t ] -> PGoto2 (parse_target ln t)
  | [ "if"; cond; t1; ":"; t2 ] ->
    PIf (parse_cond ln cond, parse_target ln t1, parse_target ln t2)
  | _ -> fail ln "bad control operation %S" (String.trim text)

let parse_sync ln s =
  match Sync.of_string (String.trim s) with
  | Some x -> x
  | None -> fail ln "bad sync value %S (expected busy or done)" s

(* ------------------------------------------------------------------ *)
(* Statement parsing                                                   *)

let parse_parcel_line ln line =
  (* "[i] data | ctl" or "[i] data | ctl | sync" *)
  match String.index_opt line ']' with
  | None -> fail ln "expected ']' after FU index"
  | Some close ->
    let idx_text = String.trim (String.sub line 1 (close - 1)) in
    let fu =
      match int_of_string_opt idx_text with
      | Some i -> i
      | None -> fail ln "bad FU index %S" idx_text
    in
    let rest = String.sub line (close + 1) (String.length line - close - 1) in
    (match split_fields '|' rest with
     | [ data; ctl ] ->
       { line = ln; fu; data = parse_data ln data; ctl = parse_ctl ln ctl;
         sync = Sync.Busy }
     | [ data; ctl; sync ] ->
       { line = ln; fu; data = parse_data ln data; ctl = parse_ctl ln ctl;
         sync = parse_sync ln sync }
     | _ -> fail ln "expected '[i] data | control [| sync]'")

let parse_statement ln line =
  if String.length line >= 4 && String.sub line 0 4 = ".fus" then
    let arg = String.trim (String.sub line 4 (String.length line - 4)) in
    match int_of_string_opt arg with
    | Some n when n >= 1 && n <= 16 -> Some (Sfus (ln, n))
    | Some _ | None -> fail ln "bad .fus count %S" arg
  else if line.[0] = '[' then Some (Sparcel (parse_parcel_line ln line))
  else if line.[String.length line - 1] = ':' then begin
    let name = String.sub line 0 (String.length line - 1) in
    if name <> "" && String.for_all is_ident_char name then
      Some (Slabel (ln, name))
    else fail ln "bad label %S" name
  end
  else fail ln "unrecognised line %S" line

(* ------------------------------------------------------------------ *)
(* Row grouping and resolution                                         *)

type prow = { row_line : int; parcels : pparcel list (* ascending fu *) }

(* Labels go into a hashtable as well as the ordered symbol list, and
   rows are counted as they close, so grouping and resolution stay
   linear in the number of labels. *)
let group_rows statements =
  let n_fus = ref None in
  let rows = ref [] in
  let n_rows = ref 0 in
  let labels = ref [] in
  let addresses = Hashtbl.create 64 in
  let current = ref [] in
  let flush () =
    match List.rev !current with
    | [] -> ()
    | first :: _ as parcels ->
      rows := { row_line = first.line; parcels } :: !rows;
      incr n_rows;
      current := []
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Sfus (ln, n) ->
        if !n_fus <> None then fail ln ".fus given twice"
        else if !rows <> [] || !current <> [] then
          fail ln ".fus must precede all code"
        else n_fus := Some n
      | Slabel (ln, name) ->
        flush ();
        if Hashtbl.mem addresses name then fail ln "duplicate label %S" name;
        Hashtbl.add addresses name !n_rows;
        labels := (name, !n_rows) :: !labels
      | Sparcel p ->
        let n =
          match !n_fus with
          | Some n -> n
          | None -> fail p.line ".fus must come before code"
        in
        if p.fu < 0 || p.fu >= n then
          fail p.line "FU index %d out of range [0, %d)" p.fu n;
        (match !current with
         | last :: _ when p.fu <= last.fu -> flush ()
         | _ -> ());
        current := p :: !current)
    statements;
  flush ();
  match !n_fus with
  | None -> fail 0 "missing .fus directive"
  | Some n ->
    if !rows = [] then fail 0 "program has no instruction rows";
    (n, List.rev !rows, List.rev !labels, addresses)

let resolve_target ~addresses ~n_rows ln = function
  | Tfall -> Control.Fallthrough
  | Taddr a ->
    if a < 0 || a >= n_rows then fail ln "absolute target %d out of range" a
    else Control.Addr a
  | Tlabel name -> (
    match Hashtbl.find_opt addresses name with
    | Some a -> Control.Addr a
    | None -> fail ln "undefined label %S" name)

let resolve_ctl ~addresses ~n_rows ~n_fus ln = function
  | PHalt -> Control.Halt
  | PGoto t ->
    let target = resolve_target ~addresses ~n_rows ln t in
    Control.Branch { cond = Cond.Always1; t1 = target; t2 = target }
  | PGoto2 t ->
    let target = resolve_target ~addresses ~n_rows ln t in
    Control.Branch { cond = Cond.Always2; t1 = target; t2 = target }
  | PIf (cond, t1, t2) ->
    let check_fu j =
      if j < 0 || j >= n_fus then
        fail ln "condition references FU %d (have %d FUs)" j n_fus
    in
    let cond =
      match cond with
      | PCc j -> check_fu j; Cond.Cc j
      | PSs j -> check_fu j; Cond.Ss j
      | PAll None -> Cond.All_ss (Cond.full_mask n_fus)
      | PAll (Some fus) ->
        List.iter check_fu fus;
        Cond.All_ss (Cond.mask_of_list fus)
      | PAny None -> Cond.Any_ss (Cond.full_mask n_fus)
      | PAny (Some fus) ->
        List.iter check_fu fus;
        Cond.Any_ss (Cond.mask_of_list fus)
    in
    Control.Branch
      { cond;
        t1 = resolve_target ~addresses ~n_rows ln t1;
        t2 = resolve_target ~addresses ~n_rows ln t2 }

let assemble text =
  let lines = String.split_on_char '\n' text in
  let statements =
    List.concat
      (List.mapi
         (fun i raw ->
           let line = String.trim (strip_comment raw) in
           if line = "" then []
           else
             match parse_statement (i + 1) line with
             | Some s -> [ s ]
             | None -> [])
         lines)
  in
  let n_fus, prows, labels, addresses = group_rows statements in
  let n_rows = List.length prows in
  let build_row { row_line; parcels } =
    let filler_ctl =
      match parcels with
      | [] -> fail row_line "empty row"
      | first :: _ -> first.ctl
    in
    Array.init n_fus (fun fu ->
      match List.find_opt (fun p -> p.fu = fu) parcels with
      | Some p ->
        Parcel.make ~sync:p.sync p.data
          (resolve_ctl ~addresses ~n_rows ~n_fus p.line p.ctl)
      | None ->
        Parcel.make Parcel.Dnop
          (resolve_ctl ~addresses ~n_rows ~n_fus row_line filler_ctl))
  in
  let rows = Array.of_list (List.map build_row prows) in
  Ximd_core.Program.make ~symbols:labels ~n_fus rows

let parse text =
  match assemble text with
  | program -> Ok program
  | exception Fail e -> Error e

let max_file_bytes = 16 * 1024 * 1024

(* Reads into [buf] from [pos] until it is full or the input ends;
   returns how many bytes it then holds. *)
let rec fill ic buf pos =
  if pos = Bytes.length buf then pos
  else
    match In_channel.input ic buf pos (Bytes.length buf - pos) with
    | 0 -> pos
    | n -> fill ic buf (pos + n)

let chunk_bytes = 65536

(* A regular file is read at the size it has when opened, in one
   allocation, and refused unread when that size is over the cap.
   Anything else (a device, a FIFO) has no size up front: it is read in
   fixed chunks, kept only while their total stays under the cap, so
   a file that never ends ([/dev/zero]) costs the cap in memory and no
   outgrown copies. *)
let read_file path =
  let too_long () =
    Error (Printf.sprintf "%s: longer than %d bytes" path max_file_bytes)
  in
  let prefix buf n =
    if n = Bytes.length buf then Bytes.unsafe_to_string buf
    else Bytes.sub_string buf 0 n
  in
  let rec chunks ic acc total =
    let chunk = Bytes.create chunk_bytes in
    match fill ic chunk 0 with
    | n when total + n > max_file_bytes -> too_long ()
    | n when n < chunk_bytes ->
      Ok (String.concat "" (List.rev (prefix chunk n :: acc)))
    | n -> chunks ic (Bytes.unsafe_to_string chunk :: acc) (total + n)
  in
  let read ic =
    let stats = Unix.fstat (Unix.descr_of_in_channel ic) in
    match stats.st_kind with
    | Unix.S_REG when stats.st_size > max_file_bytes -> too_long ()
    | Unix.S_REG ->
      let buf = Bytes.create stats.st_size in
      Ok (prefix buf (fill ic buf 0))
    | _ -> chunks ic [] 0
  in
  try In_channel.with_open_bin path read with Sys_error msg -> Error msg

let parse_file path =
  match read_file path with
  | Ok text -> parse text
  | Error message -> Error { line = 0; message }

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)

let target_source program = function
  | Control.Fallthrough -> "+1"
  | Control.Addr a -> (
    match Ximd_core.Program.label_at program a with
    | Some name -> name
    | None -> Printf.sprintf "@%x" a)

let cond_source = function
  | Cond.Always1 | Cond.Always2 -> assert false
  | Cond.Cc j -> Printf.sprintf "cc%d" j
  | Cond.Ss j -> Printf.sprintf "ss%d" j
  | Cond.All_ss m ->
    Printf.sprintf "all(%s)"
      (String.concat "," (List.map string_of_int (Cond.list_of_mask m)))
  | Cond.Any_ss m ->
    Printf.sprintf "any(%s)"
      (String.concat "," (List.map string_of_int (Cond.list_of_mask m)))

let ctl_source program = function
  | Control.Halt -> "halt"
  | Control.Branch { cond = Cond.Always1; t1; t2 = _ } ->
    "-> " ^ target_source program t1
  | Control.Branch { cond = Cond.Always2; t1 = _; t2 } ->
    "->2 " ^ target_source program t2
  | Control.Branch { cond; t1; t2 } ->
    Printf.sprintf "if %s %s : %s" (cond_source cond)
      (target_source program t1) (target_source program t2)

let to_source program =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf ".fus %d\n\n" (Ximd_core.Program.n_fus program));
  for addr = 0 to Ximd_core.Program.length program - 1 do
    (match Ximd_core.Program.label_at program addr with
     | Some name -> Buffer.add_string buf (name ^ ":\n")
     | None -> ());
    let row = Ximd_core.Program.row program addr in
    Array.iteri
      (fun fu (p : Parcel.t) ->
        let data = Format.asprintf "%a" Parcel.pp_data p.data in
        let sync =
          match p.sync with Sync.Done -> " | done" | Sync.Busy -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  [%d] %s | %s%s\n" fu data
             (ctl_source program p.control) sync))
      row
  done;
  Buffer.contents buf
