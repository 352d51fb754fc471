(** Store values: Java-style primitives plus references to heap objects.

    These are the denotable values of the persistent store.  A hyper-link
    to a primitive value captures the [t] directly; a link to an object
    captures a [Ref]. *)

type t =
  | Null
  | Bool of bool
  | Byte of int  (** invariant: -128 .. 127 *)
  | Short of int  (** invariant: -32768 .. 32767 *)
  | Char of int  (** UTF-16 code unit, invariant: 0 .. 65535 *)
  | Int of int32
  | Long of int64
  | Float of float
  | Double of float
  | Ref of Oid.t

val is_primitive : t -> bool

val byte : int -> t
(** @raise Invalid_argument if out of byte range. *)

val short : int -> t
(** @raise Invalid_argument if out of short range. *)

val char : int -> t
(** @raise Invalid_argument if out of char range. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encode : Codec.writer -> t -> unit
val decode : Codec.reader -> t
