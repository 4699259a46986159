(** Textual XIMD assembly.

    A line-oriented concrete syntax for XIMD programs, close to the
    paper's listing notation:

    {v
    ; MINMAX inner loop (4 FUs)
    .fus 4

    loop:
      [0] lt r1, r2      | if cc2 end : body
      [1] gt r1, r3      | if cc2 end : body
      [2] nop            | if cc2 end : body
      [3] isub r4, #1, r4| if cc2 end : body | done
    end:
      [0] nop | halt
    v}

    Grammar (informal):
    - [; ...] comments run to end of line; blank lines are ignored.
    - [.fus N] sets the number of functional units (required, first).
    - [name:] attaches a label to the next row.
    - A parcel line is [[i] DATA | CONTROL] or [[i] DATA | CONTROL | SYNC].
      Consecutive parcel lines with strictly increasing FU indices form
      one row; a repeated or smaller index, a label, or end of input
      closes the row.  Missing columns are filled with [nop] parcels
      carrying the control of the lowest-index parcel in the row.
    - DATA is [opcode operand, ...]:  [iadd a,b,d] · [mov a,d] ·
      [eq a,b] · [load a,b,d] · [store a,b] · [in port,d] · [out a,port]
      · [nop].  Operands are registers [rN] or immediates [#K] (decimal,
      [0x] hex, or [#f:1.5] for single-precision floats); destinations
      must be registers.
    - CONTROL is [-> T] · [->2 T] · [if ccN T : T] · [if ssN T : T] ·
      [if all T : T] · [if all(1,2) T : T] · [if any... ] · [halt].
      A target T is a label, [@HEX] for an absolute address, or [+1]
      for the prototype sequencer's fall-through.
    - SYNC is [busy] or [done] (default [busy]). *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ximd_core.Program.t, error) result
(** Assembles a complete source text. *)

val max_file_bytes : int
(** The most bytes {!read_file} reads: 16 MiB. *)

val read_file : string -> (string, string) result
(** A file's bytes: every input file the tools read comes through here.
    A file longer than {!max_file_bytes} is an [Error] read no further;
    an I/O failure is the [Sys_error] message. *)

val parse_file : string -> (Ximd_core.Program.t, error) result
(** Reads ({!read_file}) and assembles a file; I/O failures surface as
    an [error] on line 0. *)

val to_source : Ximd_core.Program.t -> string
(** Disassembles a program into parseable source.  [parse (to_source p)]
    reproduces [p] up to code equality ({!Ximd_core.Program.equal_code})
    with labels preserved for addresses that have them. *)
