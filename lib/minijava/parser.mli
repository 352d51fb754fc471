(** Recursive-descent parser for MiniJava.

    While parsing, the syntactic role of every hyper-link placeholder is
    recorded; the hyper-program editor uses those roles to decide whether a
    link insertion is syntactically legal (paper Section 2, Table 1). *)

exception Parse_error of Lexer.pos * string

type result = {
  unit_ : Ast.comp_unit;
  hyper_roles : (int * Ast.hyper_role) list;
}

val parse_unit : string -> result
(** Parse a whole compilation unit.
    @raise Parse_error or {!Lexer.Lex_error} on malformed input. *)

val parse_expression : string -> Ast.expr * (int * Ast.hyper_role) list
val parse_statements : string -> Ast.stmt list * (int * Ast.hyper_role) list
