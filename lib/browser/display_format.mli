(** Customisable display formats for the OCB browser (paper Section 5.3):
    per-class control of what a panel shows, including the temporary
    hiding of superclass fields and methods. *)

open Minijava

type t = {
  hide_superclass_fields : bool;
  hide_superclass_methods : bool;
  hidden_fields : string list;
  max_string : int;  (** truncate long strings in value cells *)
  summary : (Rt.t -> Pstore.Oid.t -> string) option;  (** custom one-line form *)
}

val default : t

type registry

val create_registry : unit -> registry
val register : registry -> class_name:string -> t -> unit

val lookup : Rt.t -> registry -> string -> t
(** Lookup walks the superclass chain, so a format registered for a base
    class applies to its subclasses. *)

val visible_field : t -> inherited:bool -> Rt.rfield -> bool
