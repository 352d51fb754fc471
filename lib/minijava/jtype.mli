(** MiniJava semantic types, method signatures, JVM-style descriptors, and
    the class-info view used by the type checker to see externally loaded
    classes. *)

type t =
  | Boolean
  | Byte
  | Short
  | Char
  | Int
  | Long
  | Float
  | Double
  | Class of string  (** fully qualified class or interface name *)
  | Array of t
  | Null_t  (** the type of the null literal; checker-internal *)
  | Void

val equal : t -> t -> bool
val is_primitive : t -> bool
val is_numeric : t -> bool
val is_integral : t -> bool
val is_reference : t -> bool

val string_class : string
val object_class : string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Bad_descriptor of string

val descriptor : t -> string
(** JVM-style descriptor, e.g. [Array (Class "Person")] is ["[LPerson;"].
    @raise Invalid_argument on [Null_t]. *)

val of_descriptor : string -> t
(** @raise Bad_descriptor on malformed input. *)

type msig = {
  params : t list;
  ret : t;
}

val msig_descriptor : msig -> string
val msig_of_descriptor : string -> msig
val pp_msig : Format.formatter -> msig -> unit

type field_info = {
  fi_name : string;
  fi_type : t;
  fi_static : bool;
  fi_final : bool;
  fi_public : bool;
}

type method_info = {
  mi_name : string;  (** constructors use ["<init>"] *)
  mi_sig : msig;
  mi_static : bool;
  mi_public : bool;
  mi_abstract : bool;
  mi_native : bool;
}

type class_info = {
  ci_name : string;
  ci_interface : bool;
  ci_abstract : bool;
  ci_super : string option;  (** [None] only for java.lang.Object *)
  ci_interfaces : string list;
  ci_fields : field_info list;  (** declared only *)
  ci_methods : method_info list;  (** declared only *)
}

type class_env = { find_class : string -> class_info option }
