(** VM bootstrap.

    A fresh store is booted by compiling the runtime library from source
    with the system's own compiler and persisting the class files in the
    store; a store that already holds classes is reopened by relinking
    them — no recompilation (persistent classes). *)

val boot_fresh : Pstore.Store.t -> Rt.t
(** Create a VM over an empty store: install natives, compile and link
    the bootstrap library. *)

val vm_for : Pstore.Store.t -> Rt.t
(** {!boot_fresh} on an empty store; otherwise relink the classes the
    store already holds. *)
