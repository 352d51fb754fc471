(** The dynamically callable compiler facade: source text in, class files
    out — the compiler that linguistic reflection invokes at run time
    (paper Section 4). *)

type error = {
  pos : Lexer.pos;
  message : string;
}

exception Compile_error of error

val pp_error : Format.formatter -> error -> unit

val compile_units : env:Jtype.class_env -> string list -> Classfile.t list
(** Compile a batch of sources together against an environment of
    already-available classes; classes in different sources may reference
    each other.
    @raise Compile_error on lexical, syntactic or type errors. *)

val compile_and_load : ?persist:bool -> ?redefine:bool -> Rt.t -> string list -> Rt.rclass list
(** Compile against a VM's loaded classes and link the result into it.
    [persist] (default true) writes class files to the store.  With
    [redefine] (default false), already-loaded classes are redefined and
    their instances migrated (see {!Linker.load_or_redefine_batch}). *)

val class_names_of_source : string -> string list
(** The classes a source string defines, without compiling it. *)
