(* Quickstart: build a tiny XIMD program with the assembly DSL, run it
   on the simulator, and inspect the trace.

   The program forks two instruction streams — FU0 computes triangular
   numbers while FU1 computes factorials — then joins them with a
   barrier and combines the results.  A VLIW cannot do this: it has one
   sequencer, so the two data-dependent loops would serialise.

     dune exec examples/quickstart.exe *)

open Ximd_isa
module B = Ximd_asm.Builder

let () =
  let t = B.create ~n_fus:2 in
  let o name = B.reg_op t name and r name = B.reg t name in
  let n1 = r "n1" and acc1 = r "acc1" in
  let n2 = r "n2" and acc2 = r "acc2" in
  let total = r "total" in
  (* Entry: each FU branches to its own thread. *)
  B.row t
    [ B.sp ~ctl:(B.goto (B.lbl "tri")) B.nop;
      B.sp ~ctl:(B.goto (B.lbl "fact")) B.nop ];
  (* Thread 0: acc1 := 1 + 2 + ... + n1 (width 1, FU 0). *)
  B.label t "tri";
  B.row t [ B.sp (B.iadd (o "acc1") (o "n1") acc1) ];
  B.row t [ B.sp (B.isub (o "n1") (B.imm 1) n1) ];
  B.row t [ B.sp (B.gt (o "n1") (B.imm 0)) ];
  B.row t [ B.sp ~ctl:(B.if_cc 0 (B.lbl "tri") (B.lbl "join")) B.nop ];
  (* Thread 1: acc2 := n2! — different trip count, FU 1's own branches. *)
  B.label t "fact";
  B.row t [ B.d B.nop; B.sp (B.imult (o "acc2") (o "n2") acc2) ];
  B.row t [ B.d B.nop; B.sp (B.isub (o "n2") (B.imm 1) n2) ];
  B.row t [ B.d B.nop; B.sp (B.gt (o "n2") (B.imm 1)) ];
  B.row t
    [ B.d B.nop; B.sp ~ctl:(B.if_cc 1 (B.lbl "fact") (B.lbl "join")) B.nop ];
  (* Barrier: wait until both threads signal DONE, then combine. *)
  B.label t "join";
  B.row t ~sync:Sync.Done
    ~ctl:(B.if_all_ss t (B.lbl "combine") (B.lbl "join")) [];
  B.label t "combine";
  B.row t [ B.d (B.iadd (o "acc1") (o "acc2") total) ];
  B.halt_row t;
  let program = B.build t in

  Format.printf "program listing:@.%a@." Ximd_core.Program.pp_listing program;

  let config = Ximd_core.Config.make ~n_fus:2 () in
  let session =
    Ximd_core.Session.create ~config ~model:Ximd_core.Engine.Per_fu program
  in
  (* n1 = 6 -> triangular 21;  n2 = 5 -> factorial 120. *)
  let setup (state : Ximd_core.State.t) =
    Ximd_machine.Regfile.set state.regs n1 (Value.of_int 6);
    Ximd_machine.Regfile.set state.regs acc1 (Value.of_int 0);
    Ximd_machine.Regfile.set state.regs n2 (Value.of_int 5);
    Ximd_machine.Regfile.set state.regs acc2 (Value.of_int 1)
  in

  let tracer = Ximd_core.Tracer.create () in
  let outcome = Ximd_core.Session.run ~tracer ~setup session in
  let state = Ximd_core.Session.state session in

  Format.printf "@.%a@.@." (Ximd_core.Tracer.pp_figure10 ?comments:None)
    tracer;
  Format.printf "%a@." Ximd_core.Run.pp outcome;
  Format.printf "triangular(6) = %a, 5! = %a, total = %a (expect 21 + 120 \
                 = 141)@."
    Value.pp (Ximd_machine.Regfile.read state.regs acc1)
    Value.pp (Ximd_machine.Regfile.read state.regs acc2)
    Value.pp (Ximd_machine.Regfile.read state.regs total);
  Format.printf "max concurrent streams: %d@." state.stats.max_streams
