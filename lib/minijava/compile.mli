(** Bytecode generation from the typed AST.

    Stack-effect convention: [Store], [Put_static], [Put_field] and
    [Array_store] all leave the assigned value on the stack, so
    assignment expressions need no stack juggling; statement contexts
    emit an explicit [Pop]. *)

val compile_class : Tast.tclass -> Classfile.t
