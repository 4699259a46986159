type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Parsing ----------------------------------------------------------- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "expected hex digit"
  in
  let parse_u16 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v =
      (hex_digit s.[!pos] lsl 12)
      lor (hex_digit s.[!pos + 1] lsl 8)
      lor (hex_digit s.[!pos + 2] lsl 4)
      lor hex_digit s.[!pos + 3]
    in
    pos := !pos + 4;
    v
  in
  (* UTF-8 encode a code point into [buf]. *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape";
         let c = s.[!pos] in
         advance ();
         match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let hi = parse_u16 () in
           let cp =
             if hi >= 0xD800 && hi <= 0xDBFF then begin
               (* surrogate pair *)
               if
                 !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = parse_u16 () in
                 if lo < 0xDC00 || lo > 0xDFFF then
                   fail "invalid low surrogate";
                 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else fail "unpaired high surrogate"
             end
             else hi
           in
           add_code_point buf cp
         | _ -> fail "unknown escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text)
    in
    if integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad integer"
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec next () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            next ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        next ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec next () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          fields := (key, value) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            next ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        next ();
        Obj (List.rev !fields)
      end
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "offset %d: %s" at msg)

(* --- Printing ---------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | (Float f | Fixed (_, f)) when not (Float.is_finite f) ->
    Buffer.add_string buf "null"
  | Float f ->
    (* %.17g round-trips doubles; trim is not worth the instability *)
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Fixed (decimals, f) ->
    Buffer.add_string buf (Printf.sprintf "%.*f" decimals f)
  | String s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i field ->
        if i > 0 then Buffer.add_char buf ',';
        add_member buf field)
      fields;
    Buffer.add_char buf '}'

and add_member buf (k, v) =
  Buffer.add_char buf '"';
  escape_into buf k;
  Buffer.add_string buf "\":";
  add buf v

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let member_to_string field =
  let buf = Buffer.create 256 in
  add_member buf field;
  Buffer.contents buf

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Fixed _ | String _ | List _ -> None

let keys = function
  | Obj fields -> List.map fst fields
  | Null | Bool _ | Int _ | Float _ | Fixed _ | String _ | List _ -> []

let to_int = function
  | Int i -> Some i
  | (Float f | Fixed (_, f)) when Float.is_integer f -> Some (int_of_float f)
  | Null | Bool _ | Float _ | Fixed _ | String _ | List _ | Obj _ -> None

let to_str = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | Fixed _ | List _ | Obj _ -> None

let to_bool = function
  | Bool b -> Some b
  | Null | Int _ | Float _ | Fixed _ | String _ | List _ | Obj _ -> None

(* --- Chrome trace_event documents -------------------------------------- *)

module Trace = struct
  let document events ~other_data =
    let buf = Buffer.create 8192 in
    Buffer.add_char buf '{';
    add buf (String "traceEvents");
    Buffer.add_string buf ":[\n";
    List.iteri
      (fun i event ->
        if i > 0 then Buffer.add_string buf ",\n";
        add buf event)
      events;
    Buffer.add_string buf "\n],";
    add_member buf ("displayTimeUnit", String "ms");
    (match other_data with
     | [] -> ()
     | fields ->
       Buffer.add_char buf ',';
       add_member buf ("otherData", Obj fields));
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let process_name name =
    Obj
      [ ("ph", String "M");
        ("pid", Int 0);
        ("name", String "process_name");
        ("args", Obj [ ("name", String name) ]) ]

  let thread_name ~tid name =
    Obj
      [ ("ph", String "M");
        ("pid", Int 0);
        ("tid", Int tid);
        ("name", String "thread_name");
        ("args", Obj [ ("name", String name) ]) ]

  let slice ~tid ~ts ~dur name args =
    Obj
      ([ ("ph", String "X");
         ("pid", Int 0);
         ("tid", Int tid);
         ("ts", Int ts);
         ("dur", Int dur);
         ("name", String name) ]
      @ match args with [] -> [] | _ -> [ ("args", Obj args) ])

  let instant ~tid ~ts name =
    Obj
      [ ("ph", String "i");
        ("pid", Int 0);
        ("tid", Int tid);
        ("ts", Int ts);
        ("s", String "t");
        ("name", String name) ]

  let counter ~ts name args =
    Obj
      [ ("ph", String "C");
        ("pid", Int 0);
        ("ts", Int ts);
        ("name", String name);
        ("args", Obj args) ]
end
