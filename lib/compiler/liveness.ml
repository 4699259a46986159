module VSet = Set.Make (Int)

type t = {
  live_in : (string, VSet.t) Hashtbl.t;
  live_out : (string, VSet.t) Hashtbl.t;
}

(* Backward transfer over one block body. *)
let transfer (b : Ir.block) out =
  List.fold_right
    (fun op live ->
      let live =
        match Ir.defs op with Some d -> VSet.remove d live | None -> live
      in
      List.fold_left (fun acc v -> VSet.add v acc) live (Ir.uses op))
    b.body out

let compute (func : Ir.func) =
  let live_in = Hashtbl.create 17 and live_out = Hashtbl.create 17 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace live_in b.label VSet.empty;
      Hashtbl.replace live_out b.label VSet.empty)
    func.blocks;
  let results = VSet.of_list func.results in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        let out =
          match b.term with
          | Ir.Return -> results
          | Ir.Jump _ | Ir.Branch _ ->
            List.fold_left
              (fun acc l ->
                match Hashtbl.find_opt live_in l with
                | Some s -> VSet.union acc s
                | None -> acc)
              VSet.empty (Ir.successors b.term)
        in
        let inn = transfer b out in
        let old_in = Hashtbl.find live_in b.label in
        let old_out = Hashtbl.find live_out b.label in
        if not (VSet.equal inn old_in && VSet.equal out old_out) then begin
          changed := true;
          Hashtbl.replace live_in b.label inn;
          Hashtbl.replace live_out b.label out
        end)
      func.blocks
  done;
  { live_in; live_out }

let live_in t label =
  match Hashtbl.find_opt t.live_in label with
  | Some s -> s
  | None -> VSet.empty

let live_out t label =
  match Hashtbl.find_opt t.live_out label with
  | Some s -> s
  | None -> VSet.empty
