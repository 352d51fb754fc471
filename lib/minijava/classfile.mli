(** Serialisable class files — the unit the dynamic compiler produces and
    the class loader consumes.  Stored in the persistent store's blob
    table they make classes persistent.  Each class file optionally
    carries its source text: the paper's "association from executable
    programs to source programs".  Encoded, the text is either inline or
    named by the key of the blob that holds it; decoding resolves the key,
    so [cf_source] always holds the text. *)

type field = {
  f_name : string;
  f_desc : string;  (** type descriptor *)
  f_static : bool;
  f_final : bool;
  f_public : bool;
}

type meth = {
  m_name : string;  (** ["<init>"] for constructors, ["<clinit>"] for statics *)
  m_desc : string;  (** method descriptor *)
  m_static : bool;
  m_native : bool;
  m_abstract : bool;
  m_public : bool;
  m_code : Bytecode.code option;  (** [None] for native/abstract methods *)
}

type t = {
  cf_name : string;
  cf_interface : bool;
  cf_abstract : bool;
  cf_super : string option;
  cf_interfaces : string list;
  cf_fields : field list;
  cf_methods : meth list;
  cf_source : string option;  (** the source program this class came from *)
}

val to_class_info : t -> Jtype.class_info
(** The type checker's view of the class. *)

val encode : ?source_key:string -> t -> string
(** Carries [cf_source] inline, or, given [source_key], names it by that
    key: the text must then be stored under the key, where {!decode}'s
    [source] finds it. *)

val decode : ?source:(string -> string) -> string -> t
(** [source key] returns the text a class file names by [key].
    @raise Pstore.Codec.Decode_error on malformed input, or on a source
    named by key when [source] is not given. *)

val encode_batch : t list -> string
val decode_batch : string -> t list
