(** The MiniJava type checker.

    Resolves names, checks types, inserts implicit conversions, lowers
    field initialisers into constructors and [<clinit>], and produces the
    typed AST consumed by the bytecode compiler. *)

exception Type_error of Lexer.pos * string

val check_units :
  env:Jtype.class_env -> (Ast.comp_unit * string option) list -> Tast.tclass list
(** Check a batch of compilation units together; classes in different
    units may reference each other freely. *)
