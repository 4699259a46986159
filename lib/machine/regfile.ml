open Ximd_isa

(* The register values themselves: writes land at the end of a cycle
   through the engine's write-back queue, which writes this array. *)
type t = Value.t array

let create () = Array.make Reg.count Value.zero
let read t r = t.(Reg.index r)
let values t = t

(* Rewind to the [create] state without reallocating the array. *)
let reset t = Array.fill t 0 Reg.count Value.zero

let set t r value = t.(Reg.index r) <- value
let dump t = Array.copy t
