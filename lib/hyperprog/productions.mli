(** Syntactically-legal hyper-link insertion (paper Section 2).

    "If a hyper-link cannot be parsed as its equivalent production then it
    is syntactically illegal."  The editor flattens the hyper-program with
    out-of-band [#<n>] placeholder tokens, parses it, and compares the
    syntactic role the parser assigned to each placeholder with the
    production of the link (Table 1). *)

open Minijava

type verdict =
  | Legal
  | Illegal of string

val flatten_with_placeholders : Editing_form.flat -> string
(** The text with [#<i>] at the [i]-th link's position, as [.hp] files
    write it. *)

val insertion_legal :
  env:Jtype.class_env -> Editing_form.flat -> pos:int -> link:Hyperlink.t -> verdict
(** Would inserting [link] at [pos] be syntactically legal?  Advisory on
    incomplete programs: if neither the program nor the program-plus-link
    parses, the insertion is allowed (composition is still in progress). *)

val table1 : Rt.t -> env:Jtype.class_env -> (string * string * bool) list
(** Evaluate the Table 1 matrix: (kind, production, legal-in-context). *)
