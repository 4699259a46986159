type placement = {
  thread : string;
  tile : Tile.t;
  x : int;
  y : int;
}

type packing = {
  placements : placement list;
  n_fus : int;
  height : int;
  lower_bound : int;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let check_choices n_fus choices =
  if choices = [] then Error "no threads"
  else if List.exists (fun (_, menu) -> menu = []) choices then
    Error "a thread has an empty tile menu"
  else if
    List.exists
      (fun (_, menu) ->
        List.exists (fun (t : Tile.t) -> t.width > n_fus || t.width < 1) menu)
      choices
  then Error "a tile is wider than the machine"
  else Ok ()

let area_lower_bound n_fus choices =
  let min_area =
    List.fold_left
      (fun acc (_, menu) ->
        acc
        + List.fold_left (fun m t -> min m (Tile.area t)) max_int menu)
      0 choices
  in
  let area_bound = (min_area + n_fus - 1) / n_fus in
  (* Every thread occupies at least its shortest tile's length. *)
  let length_bound =
    List.fold_left
      (fun acc (_, menu) ->
        max acc
          (List.fold_left (fun m (t : Tile.t) -> min m t.length) max_int menu))
      0 choices
  in
  max area_bound length_bound

(* The first tile of a (non-empty) menu that no later tile beats. *)
let best_tile beats = function
  | [] -> invalid_arg "Packing.best_tile: empty menu"
  | first :: rest -> List.fold_left (fun b t -> if beats t b then t else b) first rest

let menu_size choices thread =
  match List.assoc_opt thread choices with Some menu -> List.length menu | None -> 0

(* Best-fit skyline placement of one rectangle: the x position whose
   supporting height is lowest (ties to the left). *)
let skyline_place skyline ~width =
  let n = Array.length skyline in
  let best_x = ref 0 and best_y = ref max_int in
  for x = 0 to n - width do
    let y = ref 0 in
    for c = x to x + width - 1 do
      y := max !y skyline.(c)
    done;
    if !y < !best_y then begin
      best_y := !y;
      best_x := x
    end
  done;
  (!best_x, !best_y)

let pack_fixed n_fus (tiles : (string * Tile.t) list) =
  (* Decreasing area first-fit on the skyline. *)
  let order =
    List.sort
      (fun (_, (a : Tile.t)) (_, (b : Tile.t)) ->
        match compare (Tile.area b) (Tile.area a) with
        | 0 -> compare b.length a.length
        | c -> c)
      tiles
  in
  let skyline = Array.make n_fus 0 in
  let placements =
    List.map
      (fun (thread, (tile : Tile.t)) ->
        let x, y = skyline_place skyline ~width:tile.width in
        for c = x to x + tile.width - 1 do
          skyline.(c) <- y + tile.length
        done;
        { thread; tile; x; y })
      order
  in
  let height = Array.fold_left max 0 skyline in
  (placements, height)

(* Enumerate tile-choice combinations, calling [f] on each. *)
let rec each_combo choices acc f =
  match choices with
  | [] -> f (List.rev acc)
  | (thread, menu) :: rest ->
    List.iter (fun tile -> each_combo rest ((thread, tile) :: acc) f) menu

let combo_count choices =
  List.fold_left
    (fun acc (_, menu) ->
      if acc > 1_000_000 then acc else acc * List.length menu)
    1 choices

(* ------------------------------------------------------------------ *)
(* Static code density (Figure 13's objective)                         *)

let pack_density ?(n_fus = 8) ?(exhaustive_limit = 20_000) ?obs choices =
  match check_choices n_fus choices with
  | Error _ as e -> e
  | Ok () ->
    let lower_bound = area_lower_bound n_fus choices in
    let combos = combo_count choices in
    let exhaustive = combos <= exhaustive_limit in
    let best = ref None in
    let consider tiles =
      let placements, height = pack_fixed n_fus tiles in
      match !best with
      | Some (_, h) when h <= height -> ()
      | Some _ | None -> best := Some (placements, height)
    in
    if exhaustive then
      each_combo choices [] consider
    else begin
      (* Heuristic menu choice: smallest area, ties to the shorter. *)
      let smaller (t : Tile.t) (b : Tile.t) =
        Tile.area t < Tile.area b
        || (Tile.area t = Tile.area b && t.length < b.length)
      in
      consider
        (List.map (fun (thread, menu) -> (thread, best_tile smaller menu)) choices)
    end;
    (match !best with
     | None -> Error "packing produced no result"
     | Some (placements, height) ->
       (match obs with
        | None -> ()
        | Some t ->
          (* Rationale: the skyline fixes each tile's y (its support
             height at placement time); y = 0 means the columns were
             still free. *)
          Schedobs.record_pack t ~objective:"density" ~n_fus ~combos
            ~exhaustive ~height ~lower_bound
            ~placements:
              (List.mapi
                 (fun order p ->
                   { Schedobs.p_thread = p.thread;
                     p_order = order;
                     p_width = p.tile.Tile.width;
                     p_length = p.tile.Tile.length;
                     p_x = p.x;
                     p_y = p.y;
                     p_menu = menu_size choices p.thread;
                     p_bound = (if p.y = 0 then "free" else "skyline") })
                 placements));
       Ok { placements; n_fus; height; lower_bound })

(* ------------------------------------------------------------------ *)
(* Execution time (makespan)                                           *)

let pack_time ?(n_fus = 8) ?obs ~deps choices =
  match check_choices n_fus choices with
  | Error _ as e -> e
  | Ok () ->
    let names = List.map fst choices in
    let bad_dep =
      List.find_opt
        (fun (a, b) -> not (List.mem a names && List.mem b names))
        deps
    in
    (match bad_dep with
     | Some (a, b) ->
       Error (Printf.sprintf "dependence %s -> %s names unknown thread" a b)
     | None -> (
       match Threader.levels names deps with
       | Error _ as e -> e
       | Ok levels ->
         let order = List.concat levels in
         (* Choose the fastest tile (shortest; ties to the narrower, to
            keep columns free). *)
         let faster (t : Tile.t) (b : Tile.t) =
           t.length < b.length || (t.length = b.length && t.width < b.width)
         in
         let tile_of =
           List.map (fun (thread, menu) -> (thread, best_tile faster menu)) choices
         in
         let col_free = Array.make n_fus 0 in
         let finish = Hashtbl.create 17 in
         let rationale = ref [] in
         let placements =
           List.map
             (fun thread ->
               let tile = List.assoc thread tile_of in
               let dep_ready, dep_binder =
                 List.fold_left
                   (fun (acc, binder) (before, after) ->
                     if after = thread then begin
                       let f =
                         match Hashtbl.find_opt finish before with
                         | Some f -> f
                         | None -> 0
                       in
                       if f > acc then (f, Some before) else (acc, binder)
                     end
                     else (acc, binder))
                   (0, None) deps
               in
               (* Find the column window that can start earliest. *)
               let best_x = ref 0 and best_start = ref max_int in
               for x = 0 to n_fus - tile.width do
                 let s = ref dep_ready in
                 for c = x to x + tile.width - 1 do
                   s := max !s col_free.(c)
                 done;
                 if !s < !best_start then begin
                   best_start := !s;
                   best_x := x
                 end
               done;
               let start = !best_start and x = !best_x in
               (* What fixed the start cycle: nothing, the slowest
                  dependence predecessor, or column occupancy. *)
               let bound =
                 if start = 0 then "free"
                 else
                   match dep_binder with
                   | Some before when start = dep_ready -> "dep:" ^ before
                   | Some _ | None -> "columns"
               in
               rationale := (thread, tile, x, start, bound) :: !rationale;
               for c = x to x + tile.width - 1 do
                 col_free.(c) <- start + tile.length
               done;
               Hashtbl.replace finish thread (start + tile.length);
               { thread; tile; x; y = start })
             order
         in
         let height = Array.fold_left max 0 col_free in
         (* Lower bounds: work area and the dependence critical path
            using each thread's fastest tile. *)
         let path = Hashtbl.create 17 in
         let rec cp thread =
           match Hashtbl.find_opt path thread with
           | Some v -> v
           | None ->
             let tile = List.assoc thread tile_of in
             let best_pred =
               List.fold_left
                 (fun acc (before, after) ->
                   if after = thread then max acc (cp before) else acc)
                 0 deps
             in
             let v = best_pred + tile.length in
             Hashtbl.replace path thread v;
             v
         in
         let critical = List.fold_left (fun acc n -> max acc (cp n)) 0 names in
         let lower_bound = max (area_lower_bound n_fus choices) critical in
         (match obs with
          | None -> ()
          | Some t ->
            Schedobs.record_pack t ~objective:"time" ~n_fus ~combos:1
              ~exhaustive:false ~height ~lower_bound
              ~placements:
                (List.mapi
                   (fun order (thread, (tile : Tile.t), x, y, bound) ->
                     { Schedobs.p_thread = thread;
                       p_order = order;
                       p_width = tile.width;
                       p_length = tile.length;
                       p_x = x;
                       p_y = y;
                       p_menu = menu_size choices thread;
                       p_bound = bound })
                   (List.rev !rationale)));
         Ok { placements; n_fus; height; lower_bound }))

(* ------------------------------------------------------------------ *)

let grid packing =
  let g = Array.make_matrix (max packing.height 1) packing.n_fus '.' in
  List.iteri
    (fun i p ->
      let letter =
        if p.thread = "" then Char.chr (Char.code 'A' + (i mod 26))
        else Char.uppercase_ascii p.thread.[0]
      in
      for y = p.y to p.y + p.tile.length - 1 do
        for x = p.x to p.x + p.tile.width - 1 do
          g.(y).(x) <- letter
        done
      done)
    packing.placements;
  g

let render packing =
  let g = grid packing in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun y row ->
      Buffer.add_string buf (Printf.sprintf "%3d | " y);
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    g;
  Buffer.contents buf

let valid packing =
  let errors = ref [] in
  let occupied = Hashtbl.create 97 in
  List.iter
    (fun p ->
      if p.x < 0 || p.x + p.tile.width > packing.n_fus then
        errors := Printf.sprintf "%s out of columns" p.thread :: !errors;
      if p.y < 0 || p.y + p.tile.length > packing.height then
        errors := Printf.sprintf "%s out of rows" p.thread :: !errors;
      for y = p.y to p.y + p.tile.length - 1 do
        for x = p.x to p.x + p.tile.width - 1 do
          if Hashtbl.mem occupied (x, y) then
            errors :=
              Printf.sprintf "%s overlaps at (%d,%d)" p.thread x y :: !errors
          else Hashtbl.add occupied (x, y) p.thread
        done
      done)
    packing.placements;
  match !errors with [] -> Ok () | e :: _ -> Error e
