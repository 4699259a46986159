module Core = Ximd_core
module Obs = Ximd_obs
module W = Ximd_workloads

(* Differential XIMD-vs-VLIW report, and the one place the paper's
   section 4.1 comparison runs: each side is a workload variant run by
   [Workload.run] under its own model with per-slot accounting on, and
   the report explains the cycle delta category by category — the
   paper's Figure 8/9 discussion made mechanical.  The two sides are
   separate program codings (a sync-based XIMD program is not
   control-consistent, so it cannot run under the global sequencer
   as-is; the VLIW coding encodes the same computation with worst-case
   padding). *)

type side = {
  label : string;
  model : Core.Engine.model;
  n_fus : int;
  outcome : Core.Run.outcome;
  cycles : int;
  stats : Core.Stats.t;
  account : Obs.Account.t;
}

type t = {
  ximd : side;
  vliw : side;
}

let ( let* ) = Result.bind

(* One side on a fresh session with a lean sink: accounting only, no
   event ring, no profile.  [checked] adds [Workload.run_checked]'s
   demands: halt within fuel and pass the variant's check. *)
let run_side ~checked ~label (variant : W.Workload.variant) =
  let obs =
    Obs.Sink.create ~trace:false ~profile:false
      ~n_fus:variant.config.Core.Config.n_fus
      ~code_len:(Core.Program.length variant.program)
      ()
  in
  match
    if checked then W.Workload.run_checked ~obs variant
    else Ok (W.Workload.run ~obs variant)
  with
  | exception Invalid_argument msg -> Error (label ^ ": " ^ msg)
  | exception Ximd_machine.Hazard.Error event ->
    Error
      (label ^ ": hazard: "
      ^ Format.asprintf "%a" Ximd_machine.Hazard.pp_event event)
  | Error msg -> Error (label ^ ": " ^ msg)
  | Ok (outcome, state) ->
    Ok
      { label;
        model =
          (match variant.sim with
           | W.Workload.Ximd -> Core.Engine.Per_fu
           | W.Workload.Vliw -> Core.Engine.Global);
        n_fus = variant.config.Core.Config.n_fus;
        outcome;
        cycles = state.Core.State.cycle;
        stats = state.Core.State.stats;
        account = Option.get (Obs.Sink.account obs) }

let run_both ~checked ~ximd ~vliw =
  let* x = run_side ~checked ~label:"ximd" ximd in
  let* v = run_side ~checked ~label:"vliw" vliw in
  Ok { ximd = x; vliw = v }

let run ~ximd ~vliw = run_both ~checked:false ~ximd ~vliw

let of_workload (w : W.Workload.t) =
  Result.map_error
    (fun msg -> w.name ^ ": " ^ msg)
    (match w.vliw with
     | None -> Error "no VLIW variant"
     | Some vliw -> run_both ~checked:true ~ximd:w.ximd ~vliw)

(* ------------------------------------------------------------------ *)

let delta_cycles t = t.vliw.cycles - t.ximd.cycles

let speedup t =
  if t.ximd.cycles = 0 then 0.
  else float_of_int t.vliw.cycles /. float_of_int t.ximd.cycles

let side_json s =
  let open Ximd_json in
  Obj
    [ ( "model",
        String
          (match s.model with
           | Core.Engine.Per_fu -> "per_fu"
           | Core.Engine.Global -> "global"
           | Core.Engine.Banked -> "banked") );
      ("outcome", String (Core.Run.kind s.outcome));
      ("cycles", Int s.cycles);
      ("n_fus", Int s.n_fus);
      ("data_ops", Int s.stats.Core.Stats.data_ops);
      ("utilisation", Fixed (4, Core.Stats.utilisation s.stats ~n_fus:s.n_fus));
      ( "effective_utilisation",
        Fixed (4, Core.Stats.effective_utilisation s.stats ~n_fus:s.n_fus) );
      ("account", Obs.Account.to_json s.account ~cycles:s.cycles) ]

let to_json t =
  let open Ximd_json in
  Obj
    [ ("schema", String "ximd-compare/1");
      ("ximd", side_json t.ximd);
      ("vliw", side_json t.vliw);
      ( "delta",
        Obj
          [ ("cycles", Int (delta_cycles t));
            ("speedup", Fixed (4, speedup t));
            ( "slots",
              Obj
                (List.map
                   (fun cls ->
                     ( Obs.Account.name cls,
                       Int
                         (Obs.Account.total t.vliw.account cls
                         - Obs.Account.total t.ximd.account cls) ))
                   Obs.Account.all) ) ] ) ]

let pp fmt t =
  let x = t.ximd and v = t.vliw in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "XIMD vs VLIW: %d vs %d cycles (speedup %.2fx, delta %+d)@," x.cycles
    v.cycles (speedup t) (delta_cycles t);
  Format.fprintf fmt "  ximd: %a  utilisation %.1f%% (effective %.1f%%)@,"
    Core.Run.pp x.outcome
    (100. *. Core.Stats.utilisation x.stats ~n_fus:x.n_fus)
    (100. *. Core.Stats.effective_utilisation x.stats ~n_fus:x.n_fus);
  Format.fprintf fmt "  vliw: %a  utilisation %.1f%% (effective %.1f%%)@,"
    Core.Run.pp v.outcome
    (100. *. Core.Stats.utilisation v.stats ~n_fus:v.n_fus)
    (100. *. Core.Stats.effective_utilisation v.stats ~n_fus:v.n_fus);
  Format.fprintf fmt "  slot accounting (XIMD vs VLIW, per category):@,";
  Format.fprintf fmt "  %-12s  %12s  %12s  %8s@," "category" "ximd" "vliw"
    "delta";
  List.iter
    (fun cls ->
      let xs = Obs.Account.total x.account cls
      and vs = Obs.Account.total v.account cls in
      if xs > 0 || vs > 0 then
        Format.fprintf fmt "  %-12s  %12d  %12d  %+8d@,"
          (Obs.Account.label cls) xs vs (vs - xs))
    Obs.Account.all;
  (* the mechanical Figure 8/9 sentence: where the VLIW's extra slots
     went *)
  let extra =
    List.filter_map
      (fun cls ->
        let d =
          Obs.Account.total v.account cls - Obs.Account.total x.account cls
        in
        if d > 0 && cls <> Obs.Account.Halted then
          Some (Printf.sprintf "%+d %s" d (Obs.Account.label cls))
        else None)
      Obs.Account.all
  in
  (match extra with
   | [] -> ()
   | parts ->
     Format.fprintf fmt "  the VLIW's extra slots: %s@,"
       (String.concat ", " parts));
  Format.pp_close_box fmt ()
