(* The farm's historical name for the shared JSON module. *)
include Ximd_json
