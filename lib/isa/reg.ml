type t = int

let count = 256

let make i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Reg.make: %d out of range [0, %d)" i count)
  else i

let index r = r
let equal = Int.equal
let pp fmt r = Format.fprintf fmt "r%d" r
let to_string r = Printf.sprintf "r%d" r

let of_string s =
  let n = String.length s in
  if n < 2 || (s.[0] <> 'r' && s.[0] <> 'R') then None
  else
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some i when i >= 0 && i < count -> Some i
    | Some _ | None -> None
