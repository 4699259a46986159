type kind = Flip_ss | Flip_cc | Drop_write | Dup_write | Stuck_halt

type event = { at : int; kind : kind; target : int }

type t = {
  events : event array;  (* sorted by cycle, stable over the input order *)
  mutable cursor : int;
  mutable drop_mask : int;
  mutable dup_mask : int;
  mutable fired : event list;  (* reverse firing order *)
}

let create events =
  let events = Array.of_list events in
  Array.iter
    (fun e ->
      if e.at < 0 then invalid_arg "Fault.create: negative cycle";
      if e.target < 0 then invalid_arg "Fault.create: negative target")
    events;
  Array.stable_sort (fun a b -> Int.compare a.at b.at) events;
  { events; cursor = 0; drop_mask = 0; dup_mask = 0; fired = [] }

let begin_cycle t ~cycle ~apply =
  t.drop_mask <- 0;
  t.dup_mask <- 0;
  let n = Array.length t.events in
  while t.cursor < n && t.events.(t.cursor).at <= cycle do
    let e = t.events.(t.cursor) in
    t.cursor <- t.cursor + 1;
    t.fired <- e :: t.fired;
    match e.kind with
    | Drop_write -> t.drop_mask <- t.drop_mask lor (1 lsl e.target)
    | Dup_write -> t.dup_mask <- t.dup_mask lor (1 lsl e.target)
    | Flip_ss | Flip_cc | Stuck_halt -> apply e.kind e.target
  done

let drops t ~fu = t.drop_mask land (1 lsl fu) <> 0
let dups t ~fu = t.dup_mask land (1 lsl fu) <> 0

let fired t = List.rev t.fired
let fired_rev t = t.fired
let remaining t = Array.length t.events - t.cursor

let reset t =
  t.cursor <- 0;
  t.drop_mask <- 0;
  t.dup_mask <- 0;
  t.fired <- []

let kind_name = function
  | Flip_ss -> "ss"
  | Flip_cc -> "cc"
  | Drop_write -> "drop"
  | Dup_write -> "dup"
  | Stuck_halt -> "halt"

let kind_of_name = function
  | "ss" -> Some Flip_ss
  | "cc" -> Some Flip_cc
  | "drop" -> Some Drop_write
  | "dup" -> Some Dup_write
  | "halt" -> Some Stuck_halt
  | _ -> None

let all_kinds = [| Flip_ss; Flip_cc; Drop_write; Dup_write; Stuck_halt |]

let pp_event fmt e =
  Format.fprintf fmt "%s@@%d:%d" (kind_name e.kind) e.at e.target

let event_to_string e = Format.asprintf "%a" pp_event e

(* splitmix64 — a tiny, well-mixed, stateless-seedable PRNG; the whole
   schedule is a pure function of the seed. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let rand_below state bound =
  if bound <= 0 then 0
  else
    Int64.to_int (Int64.logand (splitmix64 state) 0x3FFFFFFFFFFFFFFFL)
    mod bound

let default_until = 10_000

let random_schedule ~seed ~n ?(until = default_until) ~n_fus () =
  if n < 0 then invalid_arg "Fault.random_schedule: negative count";
  if until <= 0 then invalid_arg "Fault.random_schedule: until must be > 0";
  if n_fus <= 0 then invalid_arg "Fault.random_schedule: n_fus must be > 0";
  let state = ref (Int64.of_int seed) in
  List.init n (fun _ ->
    let at = rand_below state until in
    let kind = all_kinds.(rand_below state (Array.length all_kinds)) in
    let target = rand_below state n_fus in
    { at; kind; target })

let parse ~n_fus spec =
  let ( let* ) = Result.bind in
  let int_field what s =
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> Ok v
    | Some _ | None -> Error (Printf.sprintf "%s: bad %s %S" spec what s)
  in
  let parse_item item =
    match String.split_on_char ':' (String.trim item) with
    | "rand" :: rest -> (
      match rest with
      | [ seed; count ] | [ seed; count; _ ] ->
        let* seed = int_field "seed" seed in
        let* count = int_field "count" count in
        let* until =
          match rest with
          | [ _; _; u ] ->
            let* u = int_field "until" u in
            if u = 0 then Error (spec ^ ": until must be > 0") else Ok u
          | _ -> Ok default_until
        in
        Ok (random_schedule ~seed ~n:count ~until ~n_fus ())
      | _ -> Error (item ^ ": expected rand:SEED:COUNT[:UNTIL]"))
    | [ head; target ] -> (
      match String.index_opt head '@' with
      | None -> Error (item ^ ": expected KIND@CYCLE:TARGET")
      | Some i -> (
        let kind = String.sub head 0 i in
        let cycle = String.sub head (i + 1) (String.length head - i - 1) in
        match kind_of_name (String.lowercase_ascii (String.trim kind)) with
        | None -> Error (Printf.sprintf "%s: unknown fault kind %S" item kind)
        | Some kind ->
          let* at = int_field "cycle" cycle in
          let* target = int_field "target" target in
          if target >= n_fus then
            Error
              (Printf.sprintf "%s: target %d out of range (%d FUs)" item
                 target n_fus)
          else Ok [ { at; kind; target } ]))
    | _ -> Error (item ^ ": expected KIND@CYCLE:TARGET or rand:SEED:COUNT")
  in
  if String.trim spec = "" then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | item :: rest ->
        let* events = parse_item item in
        go (events :: acc) rest
    in
    go [] (String.split_on_char ',' spec)

let of_spec ~n_fus spec = Result.map create (parse ~n_fus spec)
