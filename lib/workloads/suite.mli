(** The §4.1 comparison suite.

    The paper reports that programs "will be simulated on both the VLIW
    and XIMD architectures" and that "preliminary results show a
    significant performance increase on many programs".  This module
    fixes the concrete program list used for that experiment (E5 in
    DESIGN.md); [Ximd_report.Compare.of_workload] runs each one. *)

val all : unit -> Workload.t list
(** tproc, ll1, ll3, ll5, ll12, matmul, minmax, bitcount, classify,
    iosync — parity-shaped workloads first, control-parallel ones last. *)
