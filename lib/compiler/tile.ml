type t = {
  thread : string;
  width : int;
  length : int;
  compiled : Codegen.compiled;
}

let area t = t.width * t.length

let generate ?(widths = [ 1; 2; 3; 4; 6; 8 ]) (func : Ir.func) =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | width :: rest -> (
      match Codegen.compile ~width func with
      | Error errors -> Error errors
      | Ok compiled ->
        loop
          ({ thread = func.name; width; length = compiled.static_rows;
             compiled }
           :: acc)
          rest)
  in
  loop [] widths

let dominates a b = a.width <= b.width && a.length <= b.length

let pareto tiles =
  List.filter
    (fun tile ->
      not
        (List.exists
           (fun other -> other != tile && dominates other tile
                         && (other.width < tile.width
                             || other.length < tile.length))
           tiles))
    tiles
