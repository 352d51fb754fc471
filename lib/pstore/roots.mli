(** Named persistent roots.

    Everything reachable from a root survives garbage collection and
    stabilisation; everything else is reclaimed. *)

type t

val create : unit -> t
val set : t -> string -> Pvalue.t -> unit
val find : t -> string -> Pvalue.t option

val remove : t -> string -> unit
val iter : (string -> Pvalue.t -> unit) -> t -> unit
val fold : (string -> Pvalue.t -> 'a -> 'a) -> t -> 'a -> 'a

val ref_oids : t -> Oid.t list
(** Oids directly referenced from roots (the GC mark seed). *)

val replace_all : t -> from:t -> unit
(** Replace this table's contents with another's (transaction rollback). *)
