(** A small C-like source language for the compiler.

    The paper's toolchain compiled C through a retargetable GNU-C-based
    compiler (§4.2).  This module provides a minimal from-scratch
    frontend so kernels can be written as text and pushed through the
    whole pipeline (lower → schedule → emit → simulate):

    {v
    func dot(n) {
      i = 0; acc = 0;
      while (i < n) {
        acc = acc + mem[400 + i] * mem[500 + i];
        i = i + 1;
      }
      return acc;
    }
    v}

    Language summary:
    - one function per source; parameters are integers (32-bit values);
    - statements: assignment [x = e;], memory store [mem[e] = e;],
      [if (c) { ... } else { ... }] (else optional), [while (c) { ... }],
      and a final [return e, e, ...;];
    - expressions: integer literals (decimal or 0x hex), variables,
      [mem[e]] loads, unary [-], binary [* / % + - << >> & ^ |] with C
      precedence, and parentheses;
    - conditions: [e < e], [<=], [>], [>=], [==], [!=] — only in [if]
      and [while] headers (the target's compares write condition codes,
      not registers);
    - variables are mutable and function-scoped; using a variable before
      assigning it reads an implicit parameter-like zero unless it is a
      parameter.

    The frontend lowers to {!Ir} (one vreg per variable, a fresh
    predicate per branch) and validates the result. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ir.func, error) result
(** Lex, parse, lower and {!Ir.validate}, in time linear in the size of
    the source. *)

val compile :
  ?width:int -> ?obs:Schedobs.t -> string ->
  (Codegen.compiled, string list) result
(** [parse] then {!Codegen.compile}.  With [obs], frontend stages (lex,
    parse, lower, validate-ir) are individually pass-timed and the
    backend records schedules, loop bounds, and provenance; the
    generated program is bit-identical with or without [obs]. *)
