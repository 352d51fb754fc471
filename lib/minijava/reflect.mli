(** Core reflection: Class / Method / Field / Constructor mirrors.

    Mirrors are ordinary store objects of the bootstrap classes
    [java.lang.Class] and [java.lang.reflect.*], canonicalised per VM so
    [a.getClass() == b.getClass()] holds for same-class receivers.
    {!invoke} boxes and unboxes primitives through the java.lang wrapper
    classes. *)

open Pstore

val class_class : string
val method_class : string
val field_class : string
val ctor_class : string

val class_mirror : Rt.t -> string -> Pvalue.t
(** The canonical [java.lang.Class] mirror of a class name. *)

val method_mirror : Rt.t -> cls:string -> name:string -> desc:string -> Pvalue.t
val field_mirror : Rt.t -> cls:string -> name:string -> desc:string -> Pvalue.t
val ctor_mirror : Rt.t -> cls:string -> desc:string -> Pvalue.t

val mirror_field : Rt.t -> string -> Pvalue.t -> string -> string
(** Read a string field of a mirror instance. *)

val box : Rt.t -> Pvalue.t -> Pvalue.t
(** Box a primitive in its wrapper class; references pass through. *)

val unbox : Rt.t -> Pvalue.t -> Jtype.t -> Pvalue.t
(** Unbox a wrapper to the given primitive type; references pass through
    when the target is not primitive.
    @raise Rt.Jerror [IllegalArgumentException] on mismatches. *)

val methods_of_class : Rt.t -> string -> include_inherited:bool -> Rt.rmethod list
(** Declared (and optionally inherited) methods, constructors and class
    initialisers excluded, sorted by name then descriptor. *)

val fields_of_class : Rt.t -> string -> Rt.rfield list
(** The instance layout (including inherited fields). *)

val invoke :
  Rt.t -> method_mirror_value:Pvalue.t -> receiver:Pvalue.t -> args:Pvalue.t list -> Pvalue.t
(** [Method.invoke]: dispatches virtually on the receiver (or statically
    for static methods), unboxing arguments and boxing a primitive
    result. *)

val field_get : Rt.t -> field_mirror_value:Pvalue.t -> receiver:Pvalue.t -> Pvalue.t
val field_set : Rt.t -> field_mirror_value:Pvalue.t -> receiver:Pvalue.t -> value:Pvalue.t -> unit
val ctor_new_instance : Rt.t -> ctor_mirror_value:Pvalue.t -> args:Pvalue.t list -> Pvalue.t
