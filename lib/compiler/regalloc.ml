open Ximd_isa

type assignment = {
  reg_of : Ir.vreg -> Reg.t;
  used : int;
}

let trivial ?(reg_base = 0) (func : Ir.func) =
  let table = Hashtbl.create 61 in
  let next = ref reg_base in
  let assign v =
    if not (Hashtbl.mem table v) then begin
      Hashtbl.add table v !next;
      incr next
    end
  in
  List.iter assign func.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun op ->
          List.iter assign (Ir.uses op);
          Option.iter assign (Ir.defs op))
        b.body)
    func.blocks;
  List.iter assign func.results;
  if !next > Reg.count then
    Error
      (Printf.sprintf "needs %d registers, have %d" !next Reg.count)
  else
    Ok
      { used = !next - reg_base;
        reg_of =
          (fun v ->
            match Hashtbl.find_opt table v with
            | Some i -> Reg.make i
            | None ->
              invalid_arg (Printf.sprintf "Regalloc: unknown vreg v%d" v)) }
