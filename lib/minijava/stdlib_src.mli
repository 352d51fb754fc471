(** The bootstrap runtime library, written in MiniJava itself.

    Like the Napier88 system the paper describes, as much as possible is
    implemented in the language; only the essentials (I/O, reflection
    hooks, string internals) are native.  Compiled by the system's own
    compiler at first boot; the class files persist in the store. *)

val java_lang_reflect : string
(** Method, Field, Constructor. *)

val java_util : string
(** Vector and Hashtable, implemented in MiniJava over arrays. *)

val all_units : string list
(** Every bootstrap unit, compiled together as one batch. *)
