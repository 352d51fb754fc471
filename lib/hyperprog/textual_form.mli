(** The textual form (paper Section 4, Figure 8).

    Each hyper-link is replaced by an equivalent textual denotation so a
    standard compiler can compile the hyper-program: store-object links
    become retrieval expressions through the password-protected registry;
    methods, fields, types and primitive values become plain source text.

    The source-map half of this module implements the paper's planned
    improvement of reporting compile errors "in terms of the original
    hyper-program". *)

open Pstore
open Minijava

exception Textual_error of string

val link_expression :
  Rt.t -> password:string -> hp_uid:int -> link_index:int -> Hyperlink.t -> string
(** The textual equivalent of one hyper-link (paper Section 4.2).  When
    the link's target store object is quarantined or dangling this is a
    placeholder instead:
    [((java.lang.Object) null /* broken hyper-link N: reason */)]. *)

val generate : Rt.t -> Oid.t -> string
(** Generate the whole textual form of a registered hyper-program.
    Damage degrades instead of raising: links whose target entity cannot
    be read splice in that placeholder, and links whose own
    [HyperLinkHP] instance cannot be read are reported in a leading
    comment (and skipped); the others keep their getLink indices.  This
    is the text of {!generate_mapped}.
    @raise Textual_error if the program has no uid (register it with
    {!Registry.add_hp} first, or use
    {!Dynamic_compiler.generate_textual_form}). *)

(** {1 Source maps} *)

type origin =
  | From_text of int  (** offset in the storage-form text *)
  | From_link of int  (** getLink index of the covering hyper-link *)
  | From_header  (** the generated import line or unreadable-link comments *)

type source_map

val map_offset : source_map -> int -> origin
(** Attribute a textual-form offset to its origin. *)

val offset_of_pos : string -> Lexer.pos -> int
val pos_of_offset : string -> int -> Lexer.pos

val generate_mapped : Rt.t -> Oid.t -> string * source_map
(** The one generator: the textual form and its source map. *)

type explained =
  | In_text of Lexer.pos  (** a position within the hyper-program's text *)
  | In_link of int * string  (** hyper-link index and label *)
  | In_generated

val explain : Rt.t -> Oid.t -> source_map -> textual:string -> pos:Lexer.pos -> explained
(** Explain a textual-form position in hyper-program terms. *)

val pp_explained : Format.formatter -> explained -> unit
