(** Tiles — §4.2's per-thread compilation menu.

    "Each thread is compiled several times with varying resource
    constraints ... Each can be modeled as a rectangle or tile whose
    width is the required number of functional units and whose length is
    the static code size.  The best set of tiles for each thread is
    saved."  (paper §4.2, Figure 13)

    A tile records one compilation of one thread at one width. *)

type t = {
  thread : string;
  width : int;
  length : int;                (** static rows — the tile's height *)
  compiled : Codegen.compiled;
}

val area : t -> int

val generate :
  ?widths:int list -> Ir.func -> (t list, string list) result
(** Compiles the thread at each width (default [1; 2; 3; 4; 6; 8]) and
    returns one tile per width. *)

val pareto : t list -> t list
(** Keeps only non-dominated tiles: tile A dominates B when A is no
    wider and no longer.  This is the "best set of tiles" the paper
    saves per thread. *)
