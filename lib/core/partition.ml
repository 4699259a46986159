type t = int list list
(* Invariant: each SSET sorted ascending; SSETs ordered by smallest
   member; together they partition [0..n-1]. *)

let initial ~n =
  if n <= 0 then invalid_arg "Partition.initial"
  else [ List.init n (fun i -> i) ]

let normalise groups =
  let groups = List.map (List.sort_uniq Int.compare) groups in
  List.sort (fun a b -> Int.compare (List.hd a) (List.hd b)) groups

(* Labels name each FU's SSET by its lowest member, so the SSETs come
   out sorted and ordered by smallest member, with no sort. *)
let of_labels labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Partition.of_labels";
  let members = Array.make n [] in
  for fu = n - 1 downto 0 do
    let l = labels.(fu) in
    if l < 0 || l > fu || labels.(l) <> l then
      invalid_arg
        (Printf.sprintf "Partition.of_labels: FU %d has label %d" fu l);
    members.(l) <- fu :: members.(l)
  done;
  let groups = ref [] in
  for l = n - 1 downto 0 do
    match members.(l) with
    | [] -> ()
    | sset -> groups := sset :: !groups
  done;
  !groups

let of_signatures signatures =
  let n = Array.length signatures in
  if n = 0 then invalid_arg "Partition.of_signatures";
  of_labels
    (Array.init n (fun fu ->
       let rec first j =
         if Ximd_isa.Control.equal signatures.(j) signatures.(fu) then j
         else first (j + 1)
       in
       first 0))

let of_ssets groups =
  if groups = [] || List.exists (fun g -> g = []) groups then
    invalid_arg "Partition.of_ssets: empty SSET";
  let all = List.concat groups in
  let n = List.length all in
  let sorted = List.sort_uniq Int.compare all in
  if List.length sorted <> n || sorted <> List.init n (fun i -> i) then
    invalid_arg "Partition.of_ssets: not a partition of [0..n-1]";
  normalise groups

let ssets t = t

let n_fus t = List.fold_left (fun n g -> n + List.length g) 0 t

let count = List.length

let rec sset_live (halted : bool array) = function
  | [] -> false
  | fu :: rest -> (not halted.(fu)) || sset_live halted rest

let rec count_live_aux halted acc = function
  | [] -> acc
  | sset :: rest ->
    count_live_aux halted (if sset_live halted sset then acc + 1 else acc) rest

let count_live t ~halted = count_live_aux halted 0 t

let sset_of t fu =
  match List.find_opt (List.mem fu) t with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Partition.sset_of: no FU %d" fu)

let same_sset t a b = List.mem b (sset_of t a)

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> x = y) a b

let pp fmt t =
  List.iter
    (fun g ->
      Format.fprintf fmt "{%s}"
        (String.concat "," (List.map string_of_int g)))
    t

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let s = String.trim s in
  let n = String.length s in
  let rec parse i acc =
    if i >= n then Ok (List.rev acc)
    else if s.[i] <> '{' then Error (Printf.sprintf "expected '{' at %d" i)
    else
      match String.index_from_opt s i '}' with
      | None -> Error "unterminated SSET"
      | Some j ->
        let body = String.sub s (i + 1) (j - i - 1) in
        let members =
          String.split_on_char ',' body
          |> List.filter (fun x -> String.trim x <> "")
          |> List.map (fun x -> int_of_string_opt (String.trim x))
        in
        if List.exists Option.is_none members then
          Error ("bad SSET member in " ^ body)
        else
          parse (j + 1) (List.filter_map Fun.id members :: acc)
  in
  match parse 0 [] with
  | Error _ as e -> e
  | Ok groups -> (
    try Ok (of_ssets groups) with Invalid_argument msg -> Error msg)
