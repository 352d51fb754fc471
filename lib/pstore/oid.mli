(** Persistent object identifiers.

    Oids are stable across garbage collection and stabilisation, so a
    hyper-link that captures an oid remains valid for the lifetime of the
    object it denotes. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool

val to_int : t -> int
val of_int : int -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
