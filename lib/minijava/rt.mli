(** Runtime structures of the MiniJava VM.

    The VM heap IS the persistent store heap: [new] allocates a store
    record, strings are store strings, arrays are store arrays.  This is
    the orthogonal-persistence property the paper relies on — a
    hyper-link captured at composition time denotes the same store object
    the running program manipulates.

    The VM registers a pin callback with the store so that objects
    reachable only from VM state (static fields, active frames, interned
    literals, reflection mirrors) survive store garbage collection. *)

open Pstore

exception Jerror of {
  jclass : string;  (** e.g. ["java.lang.NullPointerException"] *)
  message : string;
  mutable stack : string list;
}

val jerror : string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Jerror} with a formatted message. *)

val npe : unit -> 'a
(** Raise a [java.lang.NullPointerException]. *)

type rfield = {
  rf_name : string;
  rf_type : Jtype.t;
  rf_static : bool;
}

type rmethod = {
  rm_class : string;  (** declaring class *)
  rm_name : string;
  rm_desc : string;
  rm_sig : Jtype.msig;
  rm_static : bool;
  rm_native : bool;
  rm_abstract : bool;
  rm_code : Bytecode.code option;
}

type rclass = {
  rc_name : string;
  rc_interface : bool;
  rc_abstract : bool;
  rc_super : string option;
  rc_interfaces : string list;
  mutable rc_layout : rfield array;
      (** instance layout including inherited fields; slot = array index *)
  mutable rc_layout_index : (string, int) Hashtbl.t;
  rc_static_index : (string, int) Hashtbl.t;
  mutable rc_statics : Pvalue.t array;
  rc_methods : (string, rmethod list) Hashtbl.t;  (** declared, by name *)
  mutable rc_classfile : Classfile.t;
  mutable rc_initialized : bool;
}

type frame = {
  f_method : rmethod;
  f_locals : Pvalue.t array;
  mutable f_stack : Pvalue.t list;
}

type t = {
  session : Store.Session.t;
      (** the handle every VM read and write goes through: the store's
          default session *)
  classes : (string, rclass) Hashtbl.t;
  natives : (string, native_fn) Hashtbl.t;
  mutable frames : frame list;
  string_literals : (string, Oid.t) Hashtbl.t;  (** interned literals *)
  class_mirrors : (string, Oid.t) Hashtbl.t;
  member_mirrors : (string, Oid.t) Hashtbl.t;
  out : Buffer.t;  (** captured System output *)
  mutable echo : bool;  (** also print System output to stdout *)
  mutable steps : int;  (** executed instruction count *)
  mutable load_order : string list;  (** classes in definition order *)
}

and native_fn = t -> Pvalue.t list -> Pvalue.t
(** Receiver first for instance natives. *)

val native_key : string -> string -> string -> string

val create : Store.t -> t
(** A VM over a store's default session; registers the GC pin
    callback. *)

val register_native : t -> cls:string -> name:string -> desc:string -> native_fn -> unit

val find_class : t -> string -> rclass option

val get_class : t -> string -> rclass
(** @raise Jerror [NoClassDefFoundError] when not loaded. *)

val is_loaded : t -> string -> bool

val default_value : Jtype.t -> Pvalue.t
(** The Java default value of a field/array slot of this type. *)

val define_class : t -> Classfile.t -> rclass
(** Define a class; its superclass must already be defined.
    @raise Jerror [LinkageError] on duplicates. *)

val reset_statics : rclass -> unit
(** Put a class's statics back to their defaults and mark it
    uninitialised, as {!define_class} leaves a new class, so its static
    initialiser runs again on first use. *)

(** {1 Member access} *)

val field_slot : t -> string -> string -> int
(** Instance-field slot by declaring class and name.
    @raise Jerror [NoSuchFieldError]. *)

val get_static : t -> string -> string -> Pvalue.t
val set_static : t -> string -> string -> Pvalue.t -> unit

val declared_method : rclass -> string -> string -> rmethod option

val resolve_method : t -> string -> string -> string -> rmethod
(** Static/special resolution up the super chain.
    @raise Jerror [NoSuchMethodError]. *)

val dispatch : t -> string -> string -> string -> rmethod
(** Virtual dispatch from the receiver's runtime class. *)

(** {1 Values and objects} *)

val dispatch_class_name : t -> Pvalue.t -> string
(** Class used for dispatch: strings dispatch on [java.lang.String],
    arrays on [java.lang.Object]. *)

val jstring : t -> string -> Pvalue.t
(** Allocate a fresh store string. *)

val jstring_interned : t -> string -> Pvalue.t
(** Interned (literal) strings: one store object per distinct content. *)

val ocaml_string : t -> Pvalue.t -> string
(** @raise Jerror unless the value is a string reference. *)

val alloc_object : t -> string -> Pvalue.t
(** Allocate an instance with default field values (no constructor). *)

val alloc_array : t -> string -> int -> Pvalue.t
(** [alloc_array vm elem_desc len].
    @raise Jerror [NegativeArraySizeException]. *)

(** {1 Runtime subtyping} *)

val is_class_subtype : t -> string -> string -> bool

val value_conforms : t -> Pvalue.t -> string -> bool
(** Does a value conform to a type descriptor?  [Null] does not (checked
    separately by instructions). *)

val class_env : t -> Jtype.class_env
(** The checker's view of every loaded class. *)

(** {1 Output} *)

val print_out : t -> string -> unit
val take_output : t -> string
(** Drain the captured System output. *)
