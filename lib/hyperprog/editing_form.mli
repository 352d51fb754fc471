(** The hyper-program editing form (paper Section 5.2, Figure 11).

    The form the editor works on: text split into lines, each hyper-link
    positioned by a (line, offset) pair — optimised for local edits and
    navigation.  Conversions to and from the storage form are exact
    inverses (a qcheck property in the test suite). *)

open Pstore
open Minijava

type link = {
  link : Hyperlink.t;
  label : string;
  offset : int;  (** column within the line, in [0 .. length line] *)
}

type line = {
  text : string;
  links : link list;  (** sorted by offset *)
}

type t = {
  lines : line list;
  class_name : string;
}

val line_count : t -> int
val total_links : t -> int

(** Flat representation: one text string with absolute link positions —
    the shape shared with the storage form. *)
type flat = {
  text : string;
  flat_links : (int * Hyperlink.t * string) list;  (** (absolute pos, link, label) *)
}

exception Bad_link_position of { pos : int; text_length : int }

type 'a origin =
  | Text of int  (** offset in the input text where the segment starts *)
  | Inserted of 'a  (** the tag of the insertion *)

val splice :
  ?transform:(string -> string) ->
  string ->
  (int * string * 'a) list ->
  string * (int * int * 'a origin) list
(** The one splice of every form that shows a hyper-program as one
    string: each [(pos, insertion, tag)] goes in at [pos], in position
    order (ties keep list order), text passes through [transform] (say,
    HTML escaping), and the output's non-empty [(start, length, origin)]
    segments come back in order.
    @raise Bad_link_position if a position is outside the text. *)

val flat_link : Storage_form.link_spec -> int * Hyperlink.t * string
(** A stored link as a {!flat} link. *)

val to_flat : t -> flat
val of_flat : class_name:string -> flat -> t

val of_storage : Rt.t -> Oid.t -> t
(** Load a storage-form hyper-program into the editing form.  A link
    whose [HyperLinkHP] record cannot be read is left out. *)

val to_storage : Rt.t -> t -> Oid.t
(** Create a fresh storage-form instance from an editing form. *)

val equal : t -> t -> bool
