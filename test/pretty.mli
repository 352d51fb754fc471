(** Pretty-printer from the MiniJava AST back to source text, for the
    parser round-trip property tests.  Expressions are printed fully
    parenthesised so the output re-parses unambiguously. *)

val unit_to_string : Minijava.Ast.comp_unit -> string
val expr_to_string : Minijava.Ast.expr -> string
