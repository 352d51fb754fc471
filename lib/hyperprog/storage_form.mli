(** The hyper-program storage form (paper Figures 4–6).

    A storage-form hyper-program is a store-resident
    [hyper.HyperProgram] instance: its text is a store string and its
    links are [hyper.HyperLinkHP] instances held in a [java.util.Vector].
    Compiled MiniJava code sees exactly the same objects through
    [getTheText()] / [getTheLinks()]. *)

open Pstore
open Minijava

exception Storage_error of string

type link_spec = {
  link : Hyperlink.t;
  label : string;  (** the button text; not semantically significant *)
  pos : int;  (** position within the storage-form text *)
}

val create : Rt.t -> class_name:string -> text:string -> links:link_spec list -> Oid.t
(** Allocate a [hyper.HyperProgram] instance holding [text] and one
    [hyper.HyperLinkHP] per link (sorted by position).  [class_name] is
    the principal class (may be [""] to default to the first class). *)

val link_flags : Rt.t -> Oid.t -> bool * bool
(** The paper's [(isSpecial, isPrimitive)] display flags of a link. *)

val text : Rt.t -> Oid.t -> string
val class_name : Rt.t -> Oid.t -> string

val uid : Rt.t -> Oid.t -> int
(** The hyper-program's registry offset; -1 until registered. *)

val set_uid : Rt.t -> Oid.t -> int -> unit

val link_oids : Rt.t -> Oid.t -> Oid.t list
(** Oids of the [HyperLinkHP] instances, in vector order. *)

val link_oid : Rt.t -> Oid.t -> int -> Oid.t option
(** The oid of link [i] alone ([None] when [i] is out of range), read
    from the vector's count and that one element. *)

val links : Rt.t -> Oid.t -> link_spec list
(** All links, decoded, in vector order. *)

val readable_links : Rt.t -> Oid.t -> (int * Oid.t * (link_spec, string) result) list
(** The one link reader of every form: each link's getLink index and
    [HyperLinkHP] oid with its spec, in vector order, or [Error reason]
    for a record that is quarantined or dangling. *)

val describe_unreadable : int -> string -> string
(** How every form names link [i] whose record cannot be read. *)

val is_hyper_program : Rt.t -> Oid.t -> bool
