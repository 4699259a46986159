(** File-based conformance corpus: [.xasm] programs with byte-stable
    expected-result sidecars ([foo.xasm] -> [foo.expect]), checked
    against the reference interpreter and, in full lockstep, the
    engine.

    Run parameters ride in [; conf: key=value] directive comments: the
    machine-shape keys a job spec takes ({!Ximd_core.Config.shape_keys}),
    read and written by {!Ximd_core.Config}, and [models]; see the
    implementation header for the sidecar format.  This module both
    reads ({!parse_directives}, {!config_of_directives}) and writes
    ({!directives_of_config}) the format. *)

type directives = (string * (int * string)) list
(** key -> (source line, value); the line makes value diagnostics
    precise. *)

val parse_directives : string -> (directives, string) result
(** Strict: a [; conf:] token that is not [key=value], an unknown key,
    or a duplicate key is a structured [Error] naming the line — never
    an exception. *)

val config_of_directives :
  directives -> n_fus:int -> (Ximd_core.Config.t, string) result
(** Bad values (non-numeric, unknown enum, out-of-range machine shape)
    are structured errors naming the offending line. *)

val directives_of_config : Ximd_core.Config.t -> string
(** The one [; conf:] line, newline-terminated, that
    {!config_of_directives} reads back as [config] — for a configuration
    with the [Record] hazard policy, which the corpus always uses.  It
    writes all six shape keys ({!Ximd_core.Config.pp}). *)

type case = {
  path : string;
  program : Ximd_core.Program.t;
  config : Ximd_core.Config.t;
  models : Diff.model list;
}

val load : string -> (case, string) result
(** Parse, read directives, validate.  Unreadable files, malformed
    directives and invalid configurations all return [Error] with the
    file (and where known the line) named; {!load} never raises. *)

val expect_path : string -> string
(** [foo.xasm] -> [foo.expect]. *)

val expected_content : case -> string
(** The sidecar content the case should have: one [== model] section
    per selected model, each the reference's {!Ximd_ref.Observation.summary}. *)

val check_case : case -> (unit, string) result
(** Reference summary must equal the sidecar byte-for-byte, and the
    engine must agree with the reference in lockstep, for every
    selected model. *)

val check_file : string -> (unit, string) result
val discover : string -> string list
(** The [.xasm] files of a directory, sorted. *)
